package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/nettcp"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// Two Members in one process, stitched over real TCP links and real
// nettcp radios: a query homed at node 0 whose monitoring region spans
// the strip boundary must see the object attached to node 1 — the
// install crosses as a NodeForward, the object's reports relay back, and
// the answer is exact.
func TestMemberCrossStripExactness(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	geom := grid.NewGeometry(world, 10, 10)
	part, err := NewPartition(geom, 2)
	if err != nil {
		t.Fatal(err)
	}

	var tickNow atomic.Int64
	now := func() model.Tick { return model.Tick(tickNow.Load()) }

	cfg := core.Config{
		HorizonTicks:   8,
		MinProbeRadius: 150,
		AnswerSlack:    1,
	}.WithWorldDefault(world)

	peerAddrs := reservePorts(t, 2)
	radios := make([]*nettcp.Server, 2)
	links := make([]*TCPLink, 2)
	members := make([]*Member, 2)
	clientAddrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		r, err := nettcp.Listen("127.0.0.1:0", geom)
		if err != nil {
			t.Fatal(err)
		}
		go r.Serve()
		t.Cleanup(func() { r.Close() })
		radios[i] = r
		clientAddrs[i] = r.Addr().String()
	}
	for i := 0; i < 2; i++ {
		l, err := NewTCPLink(TCPConfig{
			Node:           i,
			Addrs:          peerAddrs,
			Heartbeat:      50 * time.Millisecond,
			DialBackoffMin: 10 * time.Millisecond,
			Now:            now,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
		mb, err := NewMember(part, i, cfg, MemberDeps{
			Link:           l,
			Radio:          r(radios, i),
			ClientAddrs:    clientAddrs,
			Now:            now,
			DT:             1,
			MaxObjectSpeed: 10,
			MaxQuerySpeed:  0,
			LatencyTicks:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = mb
		radios[i].AttachHandler(mb)
	}
	waitCond(t, 5*time.Second, "peer link up", func() bool {
		return links[0].PeerUp(1) && links[1].PeerUp(0)
	})

	// The boundary is x=500. Node 0 owns [0,500), node 1 [500,1000).
	// Focal query at (450,500); objects at 430 (node 0), 470 (node 0),
	// 530 (node 1). k=2 with the nearest being 470 and 430... distances:
	// |450-430|=20, |450-470|=20, |450-530|=80. Make the cross-strip
	// object one of the two nearest: objects at (430,500), (530,500),
	// (700,500): distances 20, 80, 250 → k=2 answer is {430-obj, 530-obj},
	// and the 530 object lives in node 1's strip.
	var posMu sync.Mutex
	positions := map[model.ObjectID]geo.Point{
		1: geo.Pt(430, 500),
		2: geo.Pt(530, 500),
		3: geo.Pt(700, 500),
	}
	readPos := func(id model.ObjectID) func() geo.Point {
		return func() geo.Point {
			posMu.Lock()
			defer posMu.Unlock()
			return positions[id]
		}
	}
	nodeFor := func(id model.ObjectID) int {
		posMu.Lock()
		defer posMu.Unlock()
		return part.NodeOf(positions[id])
	}

	agents := map[model.ObjectID]*core.ObjectAgent{}
	for id := model.ObjectID(1); id <= 3; id++ {
		var agent *core.ObjectAgent
		cl, err := nettcp.Dial(clientAddrs[nodeFor(id)], id, transport.ClientHandlerFunc(func(msg protocol.Message) {
			agent.HandleServerMessage(msg)
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		agent, err = core.NewObjectAgent(cfg, core.AgentDeps{
			ID: id, Side: cl, Now: now, Pos: readPos(id), DT: 1, LatencyTicks: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[id] = agent
	}

	var qa *core.QueryAgent
	qcl, err := nettcp.Dial(clientAddrs[0], 100, transport.ClientHandlerFunc(func(msg protocol.Message) {
		qa.HandleServerMessage(msg)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer qcl.Close()
	qa, err = core.NewQueryAgent(cfg, model.QuerySpec{ID: 1, K: 2, Pos: geo.Pt(450, 500)},
		core.QueryAgentDeps{
			AgentDeps: core.AgentDeps{
				ID: 100, Side: qcl, Now: now,
				Pos: func() geo.Point { return geo.Pt(450, 500) },
				DT:  1, LatencyTicks: 2,
			},
			Vel: func() geo.Vector { return geo.Vec(0, 0) },
		})
	if err != nil {
		t.Fatal(err)
	}

	settle := func() { time.Sleep(40 * time.Millisecond) }
	step := func() {
		tickNow.Add(1)
		n := now()
		qa.Tick(n)
		for id := model.ObjectID(1); id <= 3; id++ {
			agents[id].Tick(n)
		}
		settle()
		for _, mb := range members {
			mb.Tick(n)
		}
		settle()
		for r := 0; r < 6; r++ {
			act := false
			for _, mb := range members {
				act = mb.Finalize(n) || act
			}
			settle()
			if !act {
				break
			}
		}
	}

	var a model.Answer
	deadline0 := time.Now().Add(10 * time.Second)
	for {
		step()
		a = qa.Answer()
		if len(a.Neighbors) == 2 && a.IDSet()[1] && a.IDSet()[2] {
			break
		}
		if time.Now().After(deadline0) {
			t.Fatalf("answer = %v, want objects {1,2} (2 lives across the strip boundary)", a.Neighbors)
		}
	}
	if members[0].LocalQueries() != 1 {
		t.Errorf("query not homed at node 0")
	}

	// Cross-strip traffic actually flowed on the link.
	st := links[0].Stats()
	if st.Sent == 0 {
		t.Error("no link traffic despite a boundary-spanning region")
	}

	// Object 2 leaves the answer: move it far away within node 1's strip;
	// membership must flip to {1,3}.
	posMu.Lock()
	positions[2] = geo.Pt(980, 980)
	posMu.Unlock()
	deadline := time.Now().Add(15 * time.Second)
	for {
		step()
		a = qa.Answer()
		if len(a.Neighbors) == 2 && a.IDSet()[1] && a.IDSet()[3] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-move answer = %v, want {1,3}", a.Neighbors)
		}
	}
}

// The report that crosses a strip boundary reaches the client's new home
// as a relay from the old one. When it is the client's first report for a
// forwarded query, the new home must still record the awareness — it is
// what tells the query's home to purge the client when it disconnects.
func TestRelayedReportRecordsAwareness(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(900, 900))
	part, err := NewPartition(grid.NewGeometry(world, 9, 9), 3)
	if err != nil {
		t.Fatal(err)
	}
	now := func() model.Tick { return 1 }
	link := NewMemLink(LinkConfig{}, now)
	cfg := core.Config{HorizonTicks: 8, MinProbeRadius: 150, AnswerSlack: 1}.WithWorldDefault(world)
	m, err := NewMember(part, 2, cfg, MemberDeps{
		Link: link, Radio: &recordSide{}, Now: now,
		DT: 1, MaxObjectSpeed: 10, LatencyTicks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record what the member sends instead of looping it back in.
	goneTo := -1
	link.OnDeliver(func(from, to int, msg protocol.Message) {
		if v, ok := msg.(protocol.NodeClientGone); ok && v.Object == 7 {
			goneTo = to
		}
	})

	const q, obj = model.QueryID(1), model.ObjectID(7)
	here := geo.Pt(650, 450) // node 2 owns x in [600, 900)
	// Node 0 homes q, and its monitoring region reaches into this strip.
	m.HandleLink(0, 2, protocol.NodeForward{
		Home:   0,
		Region: geo.Circle{Center: geo.Pt(450, 450), R: 300},
		Inner:  protocol.MonitorInstall{Query: q, Epoch: 1, QueryPos: geo.Pt(450, 450), AnswerRadius: 250, Radius: 300, At: 1},
	})
	// The client walks in from node 1's strip: node 1 hands it off, then
	// relays the very report that crossed to the position's owner.
	m.HandleLink(1, 2, protocol.ObjectHandoff{Object: obj, Pos: here, At: 1})
	m.HandleLink(1, 2, protocol.NodeRelay{Origin: obj, Hops: 1, Inner: protocol.EnterReport{
		MemberReport: protocol.MemberReport{Query: q, Epoch: 1, Object: obj, Pos: here, At: 1},
	}})
	m.HandleClientAttached(obj)
	m.HandleClientGone(obj)
	link.Flush()
	if goneTo != 0 {
		t.Fatalf("NodeClientGone went to node %d, want the query's home 0 (-1: never sent)", goneTo)
	}
}

func r(radios []*nettcp.Server, i int) transport.ServerSide { return radios[i].Side() }
