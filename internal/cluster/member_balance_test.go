package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmknn/internal/balance"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/nettcp"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// redirectClient is a minimal redirect-following client side, standing
// in for the deployment shell's fedConn: on NodeRedirect it re-dials the
// named node and swaps the live connection, so a migrated monitor's new
// home can reach the client on its own radio.
type redirectClient struct {
	mu sync.Mutex
	id model.ObjectID
	cl *nettcp.Client
	h  func(protocol.Message)
}

func (rc *redirectClient) Uplink(m protocol.Message) {
	rc.mu.Lock()
	cl := rc.cl
	rc.mu.Unlock()
	if cl != nil {
		cl.Uplink(m)
	}
}

func (rc *redirectClient) handle(msg protocol.Message) {
	if v, ok := msg.(protocol.NodeRedirect); ok {
		nc, err := nettcp.Dial(v.Addr, rc.id, transport.ClientHandlerFunc(rc.handle))
		if err != nil {
			return
		}
		rc.mu.Lock()
		old := rc.cl
		rc.cl = nc
		rc.mu.Unlock()
		if old != nil {
			// Async: Close waits for the read loop this handler may be
			// running on.
			go old.Close()
		}
		return
	}
	rc.h(msg)
}

func (rc *redirectClient) Close() {
	rc.mu.Lock()
	cl := rc.cl
	rc.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// Two Members over real TCP links with the balancer on: a population
// hotspot at node 0 (six clients vs four) makes the coordinator hand
// boundary column 4 to node 1, which migrates the focal monitor living
// in that column. The answer must stay exact before, across, and after
// the move, including an object that then teleports into the moved
// column — its enter report has to traverse the rebalanced ownership
// (install forwarded to node 0's radio, report relayed to the monitor's
// new home on node 1).
func TestMemberAdaptiveBalanceLiveMigration(t *testing.T) {
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

	// This test used to time out about one run in three, and the timeout
	// said nothing. Every failure now ships the federation's own account
	// of the run: the lifecycle events both members recorded (handoffs
	// begun and acked, column moves, relay drops) and, below, their
	// counters — which is how the handoff-before-map race was found.
	rec := obs.NewRecorder(0)
	obs.DumpOnFailure(t, rec)

	peerAddrs := reservePorts(t, 2)
	radios := make([]*nettcp.Server, 2)
	links := make([]*TCPLink, 2)
	members := make([]*Member, 2)
	clientAddrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		rd, err := nettcp.Listen("127.0.0.1:0", geom)
		if err != nil {
			t.Fatal(err)
		}
		go rd.Serve()
		t.Cleanup(func() { rd.Close() })
		radios[i] = rd
		clientAddrs[i] = rd.Addr().String()
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
			Trace:          rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = mb
		radios[i].AttachHandler(mb)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for i, mb := range members {
			t.Logf("node %d at tick %d: partition version %d, %d local queries, %d attached clients, %d redirects\n  stats %+v\n  balancer %+v\n  link %+v",
				i, now(), mb.PartitionVersion(), mb.LocalQueries(), mb.AttachedCount(), mb.Redirects(),
				mb.Stats(), mb.BalancerStats(), links[i].Stats())
		}
	})
	waitCond(t, 5*time.Second, "peer link up", func() bool {
		return links[0].PeerUp(1) && links[1].PeerUp(0)
	})

	// The static boundary is x=500 (node 0 owns columns 0-4). A node's
	// population is the clients that have *spoken* to it, so every object
	// sits inside the focal's probe region (MinProbeRadius 150 around
	// (450,500)) and replies to the initial probe: six clients attach at
	// node 0 (objects 1-5 and the query), four at node 1. With the
	// balancer weighing population only, the first decision moves column
	// 4 (x in [400,500)) to node 1 with relative gain 2/15 ≈ 0.13; the
	// next-best move (column 3) gains only 1/12 < MinGain=0.1, so the map
	// deterministically settles at version 1 with a 4/6 column split.
	var posMu sync.Mutex
	positions := map[model.ObjectID]geo.Point{
		1: geo.Pt(430, 500), // d=20 from the focal — in the k=2 answer
		2: geo.Pt(470, 520), // d≈28 — in the answer, inside column 4
		3: geo.Pt(390, 480), // d≈63, column 3
		4: geo.Pt(350, 550), // d≈112, column 3
		5: geo.Pt(340, 420), // d≈136, column 3
		6: geo.Pt(530, 500), // node 1, d=80; teleports into the answer later
		7: geo.Pt(520, 550), // d≈86, column 5
		8: geo.Pt(560, 460), // d≈117, column 5
		9: geo.Pt(575, 540), // d≈131, column 5
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
	for id := model.ObjectID(1); id <= 9; id++ {
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

	// The query follows redirects: after its monitor migrates, the new
	// home redirects the client so answers flow from the node that owns
	// the focal — exactly the deployment shell's client behavior.
	focal := geo.Pt(450, 500)
	var qa *core.QueryAgent
	rq := &redirectClient{id: 100, h: func(msg protocol.Message) { qa.HandleServerMessage(msg) }}
	qcl, err := nettcp.Dial(clientAddrs[0], 100, transport.ClientHandlerFunc(rq.handle))
	if err != nil {
		t.Fatal(err)
	}
	rq.cl = qcl
	defer rq.Close()
	qa, err = core.NewQueryAgent(cfg, model.QuerySpec{ID: 1, K: 2, Pos: focal},
		core.QueryAgentDeps{
			AgentDeps: core.AgentDeps{
				ID: 100, Side: rq, Now: now,
				Pos: func() geo.Point { return focal },
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
		for id := model.ObjectID(1); id <= 9; id++ {
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
	waitAnswer := func(what string, timeout time.Duration, want ...model.ObjectID) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			step()
			a := qa.Answer()
			ids := a.IDSet()
			ok := len(a.Neighbors) == len(want)
			for _, id := range want {
				ok = ok && ids[id]
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: answer = %v, want %v", what, a.Neighbors, want)
			}
		}
	}

	// Converge under the static map first, so the monitor is homed at
	// node 0 when the move strands it — the migration must ship live
	// monitor state, not re-register a fresh query.
	waitAnswer("static map", 10*time.Second, 1, 2)
	if members[0].LocalQueries() != 1 {
		t.Fatalf("query homed at node %v, want 0", members[1].LocalQueries())
	}
	if v := members[0].PartitionVersion(); v != 0 {
		t.Fatalf("pre-balance partition version = %d, want 0", v)
	}

	bcfg := balance.Config{IntervalTicks: 3, MinGain: 0.1, PopWeight: 1}
	for _, mb := range members {
		mb.EnableBalancer(bcfg)
	}

	// The coordinator needs a fresh NodeLoad from node 1 before it can
	// decide; the move then distributes as a versioned PartitionUpdate
	// both nodes apply.
	waitCond(t, 15*time.Second, "column move to commit on both nodes", func() bool {
		step()
		return members[0].PartitionVersion() == 1 && members[1].PartitionVersion() == 1
	})
	if oc0, oc1 := members[0].OwnedColumns(), members[1].OwnedColumns(); oc0 != 4 || oc1 != 6 {
		t.Errorf("owned columns = %d/%d, want 4/6", oc0, oc1)
	}
	bs := members[0].BalancerStats()
	if bs.Decisions == 0 || bs.Moves != 1 {
		t.Errorf("coordinator balancer stats = %+v, want exactly 1 move", bs)
	}
	if bs1 := members[1].BalancerStats(); bs1.Moves != 0 {
		t.Errorf("non-coordinator balancer stats = %+v, want zero", bs1)
	}
	for i, mb := range members {
		if cm := mb.Stats().ColumnMoves; cm != 1 {
			t.Errorf("node %d ColumnMoves = %d, want 1", i, cm)
		}
	}
	np := members[1].Partition()
	if np.Version() != 1 || np.NodeOf(focal) != 1 {
		t.Errorf("post-move map: version=%d owner(focal)=%d, want 1/1", np.Version(), np.NodeOf(focal))
	}

	// The focal sits in the moved column, so the monitor migrates to
	// node 1 through the query-handoff path; the answer keeps flowing to
	// the query client still attached at node 0 and stays exact.
	waitCond(t, 15*time.Second, "monitor to migrate to node 1", func() bool {
		step()
		return members[1].LocalQueries() == 1 && members[0].LocalQueries() == 0
	})
	waitAnswer("across the migration", 15*time.Second, 1, 2)
	if a := members[1].Answer(1); len(a.Neighbors) != 2 {
		t.Errorf("migrated monitor's answer = %v, want 2 neighbors", a.Neighbors)
	}

	// Object 2 moves within the moved column, keeping its distance to the
	// focal: the answer must not change, but the report — attached at
	// node 0, positioned in node 1's new strip — must hand the object off
	// across the rebalanced boundary.
	posMu.Lock()
	positions[2] = geo.Pt(430, 480)
	posMu.Unlock()
	waitCond(t, 15*time.Second, "object handoff across the moved boundary", func() bool {
		step()
		return members[0].Stats().ObjectHandoffs >= 1
	})
	waitAnswer("after in-column movement", 15*time.Second, 1, 2)

	// A stale peer hello (a node that rejoined at version 0) must be
	// pushed the current map; the re-send is idempotent at node 1, which
	// acks without applying.
	members[0].handlePeerHello(1, 0)
	waitAnswer("after stale-hello map push", 10*time.Second, 1, 2)
	if v := members[1].PartitionVersion(); v != 1 {
		t.Errorf("partition version after duplicate update = %d, want 1", v)
	}

	// Movement across the rebalanced boundary: object 6 (attached at
	// node 1, already holding the monitor) teleports next to the focal,
	// into the column node 1 now owns. Its enter report is served by the
	// monitor's new home and the answer — delivered cross-node to the
	// query still attached at node 0 — flips to {1,6}, evicting object 2.
	posMu.Lock()
	positions[6] = geo.Pt(460, 480)
	posMu.Unlock()
	waitAnswer("after teleport into moved column", 20*time.Second, 1, 6)

	if members[0].Redirects() == 0 {
		t.Error("no redirect issued for the handed-off object")
	}
	// The query's redirect detached it from node 0 (its attach entry at
	// node 1 reappears on its next uplink, which a stationary query may
	// never send); the nine objects stay attached where they dialed.
	if a0, a1 := members[0].AttachedCount(), members[1].AttachedCount(); a0 != 5 || a1 < 4 {
		t.Errorf("attached clients = %d/%d, want 5 at node 0 and >=4 at node 1", a0, a1)
	}
	if members[0].Node() != 0 || members[1].Node() != 1 {
		t.Error("Node() accessor mismatch")
	}
	if members[1].Server() == nil || members[1].QueryCount() != 1 {
		t.Errorf("node 1 QueryCount = %d, want 1", members[1].QueryCount())
	}
	if members[1].BusyTime() <= 0 {
		t.Error("node 1 reports zero busy time despite hosting the monitor")
	}
	if links[0].Addr() == nil {
		t.Error("link reports no bound address")
	}
	if n := links[0].Flush(); n != 0 {
		t.Errorf("push-driven link flushed %d messages, want 0", n)
	}
}
