package nettcp

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

func testGeom() grid.Geometry {
	return grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 10, 10)
}

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", testGeom())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	return s
}

// collector records uplinks thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []protocol.Message
	from []model.ObjectID
}

func (c *collector) HandleUplink(from model.ObjectID, m protocol.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// clientCollector records downlinks/broadcasts thread-safely.
type clientCollector struct {
	mu   sync.Mutex
	msgs []protocol.Message
}

func (c *clientCollector) HandleServerMessage(m protocol.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *clientCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestUplinkRoundTrip(t *testing.T) {
	s := startServer(t)
	col := &collector{}
	s.AttachHandler(col)

	cl, err := Dial(s.Addr().String(), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	msg := protocol.LocationReport{Object: 42, Pos: geo.Pt(3, 4), Vel: geo.Vec(1, 0), At: 7}
	cl.Uplink(msg)
	waitFor(t, "uplink delivery", func() bool { return col.count() == 1 })
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.from[0] != 42 {
		t.Errorf("from = %d", col.from[0])
	}
	if got, ok := col.msgs[0].(protocol.LocationReport); !ok || got != msg {
		t.Errorf("got %#v", col.msgs[0])
	}
	c := s.Counters()
	if c.Sent(metrics.Uplink) != 1 || c.Delivered(metrics.Uplink) != 1 {
		t.Error("uplink counters wrong")
	}
}

func TestDownlinkAndBroadcast(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(transport.ServerHandlerFunc(func(model.ObjectID, protocol.Message) {}))

	c1, c2 := &clientCollector{}, &clientCollector{}
	cl1, err := Dial(s.Addr().String(), 1, c1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(s.Addr().String(), 2, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	waitFor(t, "both clients registered", func() bool { return s.ClientCount() == 2 })

	s.Side().Downlink(1, protocol.AnswerUpdate{Query: 9, At: 1})
	waitFor(t, "downlink", func() bool { return c1.count() == 1 })
	if c2.count() != 0 {
		t.Error("downlink leaked to another client")
	}

	region := geo.Circle{Center: geo.Pt(500, 500), R: 120}
	s.Side().Broadcast(region, protocol.MonitorCancel{Query: 9, Epoch: 1})
	waitFor(t, "broadcast", func() bool { return c1.count() == 2 && c2.count() == 1 })

	cnt := s.Counters()
	wantCells := uint64(len(testGeom().CellsIntersecting(region)))
	if got := cnt.Sent(metrics.Broadcast); got != wantCells {
		t.Errorf("broadcast transmissions = %d, want %d (cell-accounted)", got, wantCells)
	}
	if cnt.Sent(metrics.Downlink) != 1 {
		t.Error("downlink count")
	}
}

func TestDownlinkToAbsentClientIsDropped(t *testing.T) {
	s := startServer(t)
	s.Side().Downlink(99, protocol.AnswerUpdate{Query: 1})
	c := s.Counters()
	if c.Dropped(metrics.Downlink) != 1 {
		t.Errorf("dropped = %d", c.Dropped(metrics.Downlink))
	}
}

// An agent of wire version 3, whose answer resyncs carry a sequence and
// a tick, is refused at the handshake and never becomes a client, while
// a current one beside it stays connected.
func TestBadHandshakeRejected(t *testing.T) {
	s := startServer(t)
	cl, err := Dial(s.Addr().String(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "good client", func() bool { return s.ClientCount() == 1 })
	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{'D', 'K', 'N', 'N', 3, 6, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("server kept a version-3 connection open (read: %v)", err)
	}
	if n := s.ClientCount(); n != 1 {
		t.Fatalf("%d clients after a version-3 hello, want the good one only", n)
	}
}

func TestReconnectReplacesSession(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(&collector{})
	c1, err := Dial(s.Addr().String(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first session", func() bool { return s.ClientCount() == 1 })
	c2, err := Dial(s.Addr().String(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Still exactly one registered client for id 7.
	waitFor(t, "replacement", func() bool { return s.ClientCount() == 1 })
	c1.Close()
	time.Sleep(10 * time.Millisecond)
	if s.ClientCount() != 1 {
		t.Error("closing the stale session must not unregister the new one")
	}
}

// End-to-end: the DKNN protocol state machines running over real TCP.
// A stationary query watches three moving objects; ticks are driven
// manually with settling delays between the protocol phases.
func TestDKNNOverTCP(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	s := startServer(t)

	var tickNow atomic.Int64
	now := func() model.Tick { return model.Tick(tickNow.Load()) }

	cfg := core.Config{
		HorizonTicks:   8,
		MinProbeRadius: 100,
		AnswerSlack:    1,
	}.WithWorldDefault(world)

	srv, err := core.NewServer(cfg, core.ServerDeps{
		Side:           s.Side(),
		Now:            now,
		DT:             1,
		MaxObjectSpeed: 10,
		MaxQuerySpeed:  0,
		LatencyTicks:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachHandler(srv)

	// Three objects; positions mutated under a lock between ticks.
	var posMu sync.Mutex
	positions := map[model.ObjectID]geo.Point{
		1: geo.Pt(500, 510),
		2: geo.Pt(500, 530),
		3: geo.Pt(500, 560),
	}
	readPos := func(id model.ObjectID) func() geo.Point {
		return func() geo.Point {
			posMu.Lock()
			defer posMu.Unlock()
			return positions[id]
		}
	}
	agents := map[model.ObjectID]*core.ObjectAgent{}
	for id := model.ObjectID(1); id <= 3; id++ {
		var agent *core.ObjectAgent
		cl, err := Dial(s.Addr().String(), id, transport.ClientHandlerFunc(func(m protocol.Message) {
			agent.HandleServerMessage(m)
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		agent, err = core.NewObjectAgent(cfg, core.AgentDeps{
			ID: id, Side: cl, Now: now, Pos: readPos(id), DT: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[id] = agent
	}

	// Query focal client at (500,500) asking for k=2.
	var qa *core.QueryAgent
	qcl, err := Dial(s.Addr().String(), 100, transport.ClientHandlerFunc(func(m protocol.Message) {
		qa.HandleServerMessage(m)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer qcl.Close()
	qa, err = core.NewQueryAgent(cfg, model.QuerySpec{ID: 1, K: 2, Pos: geo.Pt(500, 500)},
		core.QueryAgentDeps{
			AgentDeps: core.AgentDeps{
				ID: 100, Side: qcl, Now: now,
				Pos: func() geo.Point { return geo.Pt(500, 500) },
				DT:  1,
			},
			Vel: func() geo.Vector { return geo.Vec(0, 0) },
		})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all clients connected", func() bool { return s.ClientCount() == 4 })

	settle := func() { time.Sleep(30 * time.Millisecond) }
	step := func() {
		tickNow.Add(1)
		qa.Tick(now())
		for id := model.ObjectID(1); id <= 3; id++ {
			agents[id].Tick(now())
		}
		settle()
		srv.Tick(now())
		settle()
		for i := 0; i < 4 && srv.Finalize(now()); i++ {
			settle()
		}
		settle()
	}

	step() // registers the query, probes, installs
	waitFor(t, "initial answer", func() bool {
		a := qa.Answer()
		return len(a.Neighbors) == 2
	})
	a := qa.Answer()
	if a.Neighbors[0].ID != 1 || a.Neighbors[1].ID != 2 {
		t.Fatalf("initial answer = %v, want objects 1,2", a.Neighbors)
	}

	// Move object 3 closest; membership must flip to {3, 1}.
	posMu.Lock()
	positions[3] = geo.Pt(500, 505)
	posMu.Unlock()
	step()
	waitFor(t, "updated answer", func() bool {
		a := qa.Answer()
		return len(a.Neighbors) == 2 && a.IDSet()[3]
	})
	a = qa.Answer()
	if !a.IDSet()[3] || !a.IDSet()[1] {
		t.Fatalf("post-move answer = %v, want {3,1}", a.Neighbors)
	}

	// Traffic flowed on the real socket.
	c := s.Counters()
	if c.Sent(metrics.Uplink) == 0 || c.Sent(metrics.Broadcast) == 0 || c.Sent(metrics.Downlink) == 0 {
		t.Errorf("expected traffic in all directions: %+v up=%d down=%d bcast=%d",
			c, c.Sent(metrics.Uplink), c.Sent(metrics.Downlink), c.Sent(metrics.Broadcast))
	}
}

// A raw connection with a wrong magic must be rejected and never counted
// as a client.
func TestRawBadMagicRejected(t *testing.T) {
	s := startServer(t)
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{'X', 'X', 'X', 'X', 1, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection; a read observes EOF.
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("server kept a bad-magic connection open")
	}
	if s.ClientCount() != 0 {
		t.Fatal("bad-magic connection registered as client")
	}
}

// An oversized frame kills the connection instead of allocating.
func TestOversizedFrameRejected(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(&collector{})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := append([]byte{'D', 'K', 'N', 'N', version}, 9, 0, 0, 0)
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return s.ClientCount() == 1 })
	// Declare a 100 MB frame.
	if _, err := c.Write([]byte{0, 0, 0x40, 0x06}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect", func() bool { return s.ClientCount() == 0 })
}

// A wrong protocol version in the handshake is rejected.
func TestWrongVersionRejected(t *testing.T) {
	s := startServer(t)
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{'D', 'K', 'N', 'N', 99, 1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("server kept a wrong-version connection open")
	}
	if s.ClientCount() != 0 {
		t.Fatal("wrong-version connection registered")
	}
}

// A connection torn down by the SERVER latches an error on the client;
// an intentional client Close does not (closing is not a failure), and
// sends after either never panic.
func TestUplinkErrorSemantics(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(&collector{})
	cl, err := Dial(s.Addr().String(), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Err() != nil {
		t.Fatalf("fresh client has error %v", cl.Err())
	}
	// Kill the server side; subsequent uplinks fail and latch the error.
	waitFor(t, "registered", func() bool { return s.ClientCount() == 1 })
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for cl.Err() == nil {
		cl.Uplink(protocol.QueryDeregister{Query: 1})
		if time.Now().After(deadline) {
			t.Fatal("Err() never latched after server death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.Close()

	// Intentional close on a healthy connection stays error-free.
	s2 := startServer(t)
	s2.AttachHandler(&collector{})
	cl2, err := Dial(s2.Addr().String(), 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl2.Close()
	cl2.Uplink(protocol.QueryDeregister{Query: 1}) // must not panic
	if cl2.Err() != nil {
		t.Fatalf("intentional close produced error %v", cl2.Err())
	}
}
