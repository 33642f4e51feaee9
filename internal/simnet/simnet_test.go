package simnet

import (
	"strings"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

func testConfig() Config {
	return Config{
		Geometry: grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 10, 10),
	}
}

// recorder collects delivered messages.
type recorder struct {
	uplinks []protocol.Message
	froms   []model.ObjectID
	msgs    []protocol.Message
}

func (r *recorder) HandleUplink(from model.ObjectID, m protocol.Message) {
	r.froms = append(r.froms, from)
	r.uplinks = append(r.uplinks, m)
}

func (r *recorder) HandleServerMessage(m protocol.Message) {
	r.msgs = append(r.msgs, m)
}

func TestUplinkDelivery(t *testing.T) {
	n := New(testConfig())
	rec := &recorder{}
	n.AttachServer(rec)
	msg := protocol.LocationReport{Object: 5, Pos: geo.Pt(1, 2), At: 0}
	n.ClientSide(5).Uplink(msg)
	if got := n.Flush(); got != 1 {
		t.Fatalf("Flush delivered %d", got)
	}
	if len(rec.uplinks) != 1 || rec.froms[0] != 5 {
		t.Fatalf("server got %v from %v", rec.uplinks, rec.froms)
	}
	c := n.Counters()
	if c.Sent(metrics.Uplink) != 1 || c.Delivered(metrics.Uplink) != 1 {
		t.Fatal("uplink counters wrong")
	}
	if c.SentBytes(metrics.Uplink) != uint64(protocol.EncodedSize(msg)) {
		t.Fatal("uplink bytes wrong")
	}
}

func TestUplinkWithoutServerIsDropped(t *testing.T) {
	n := New(testConfig())
	n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
	if got := n.Flush(); got != 0 {
		t.Fatalf("delivered %d with no server", got)
	}
	if n.Counters().Dropped(metrics.Uplink) != 1 {
		t.Fatal("drop not counted")
	}
}

func TestDownlinkDelivery(t *testing.T) {
	n := New(testConfig())
	rec := &recorder{}
	n.AttachClient(7, rec)
	n.ServerSide().Downlink(7, protocol.AnswerUpdate{Query: 1, At: 2})
	n.ServerSide().Downlink(8, protocol.AnswerUpdate{Query: 1, At: 2}) // absent client
	if got := n.Flush(); got != 1 {
		t.Fatalf("Flush delivered %d", got)
	}
	if len(rec.msgs) != 1 {
		t.Fatalf("client got %d messages", len(rec.msgs))
	}
	c := n.Counters()
	if c.Sent(metrics.Downlink) != 2 || c.Delivered(metrics.Downlink) != 1 || c.Dropped(metrics.Downlink) != 1 {
		t.Fatal("downlink counters wrong")
	}
}

func TestBroadcastAudienceAndAccounting(t *testing.T) {
	n := New(testConfig())
	pos := map[model.ObjectID]geo.Point{
		1: geo.Pt(50, 50),   // inside region cell
		2: geo.Pt(150, 50),  // neighboring cell also intersecting
		3: geo.Pt(950, 950), // far away
	}
	n.SetPositionOracle(func(id model.ObjectID) (geo.Point, bool) {
		p, ok := pos[id]
		return p, ok
	})
	recs := map[model.ObjectID]*recorder{}
	for id := range pos {
		recs[id] = &recorder{}
		n.AttachClient(id, recs[id])
	}
	// Circle centered at (100,50) r=60 covers cells (0,0) and (1,0).
	region := geo.Circle{Center: geo.Pt(100, 50), R: 60}
	wantCells := len(testConfig().Geometry.CellsIntersecting(region))
	if wantCells < 2 {
		t.Fatalf("test setup: region covers %d cells", wantCells)
	}
	n.ServerSide().Broadcast(region, protocol.MonitorCancel{Query: 9})
	if got := n.Flush(); got != 2 {
		t.Fatalf("broadcast reached %d clients, want 2", got)
	}
	if len(recs[1].msgs) != 1 || len(recs[2].msgs) != 1 || len(recs[3].msgs) != 0 {
		t.Fatal("wrong audience")
	}
	if got := n.Counters().Sent(metrics.Broadcast); got != uint64(wantCells) {
		t.Fatalf("broadcast transmissions = %d, want %d (one per cell)", got, wantCells)
	}
}

func TestBroadcastEmptyRegion(t *testing.T) {
	n := New(testConfig())
	n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return geo.Point{}, false })
	n.ServerSide().Broadcast(geo.Circle{Center: geo.Pt(0, 0), R: -1}, protocol.MonitorCancel{Query: 1})
	if n.Flush() != 0 {
		t.Fatal("negative-radius broadcast delivered")
	}
	if n.Counters().Sent(metrics.Broadcast) != 0 {
		t.Fatal("empty broadcast counted")
	}
}

func TestLatency(t *testing.T) {
	cfg := testConfig()
	cfg.LatencyTicks = 2
	n := New(cfg)
	rec := &recorder{}
	n.AttachServer(rec)
	n.SetNow(10)
	n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
	if n.Flush() != 0 {
		t.Fatal("message delivered before due tick")
	}
	if n.PendingCount() != 1 {
		t.Fatal("message lost from queue")
	}
	n.SetNow(11)
	if n.Flush() != 0 {
		t.Fatal("delivered one tick early")
	}
	n.SetNow(12)
	if n.Flush() != 1 {
		t.Fatal("not delivered at due tick")
	}
}

// cascadeServer responds to each uplink with a downlink, which the client
// consumes silently: a two-round cascade Flush must fully drain.
type cascadeServer struct {
	side transport.ServerSide
	n    int
}

func (s *cascadeServer) HandleUplink(from model.ObjectID, m protocol.Message) {
	s.n++
	s.side.Downlink(from, protocol.AnswerUpdate{Query: 1})
}

func TestFlushDrainsHandlerCascades(t *testing.T) {
	n := New(testConfig())
	srv := &cascadeServer{side: n.ServerSide()}
	n.AttachServer(srv)
	rec := &recorder{}
	n.AttachClient(3, rec)
	n.ClientSide(3).Uplink(protocol.QueryDeregister{Query: 1})
	delivered := n.Flush()
	if delivered != 2 {
		t.Fatalf("Flush delivered %d, want 2 (uplink + response)", delivered)
	}
	if len(rec.msgs) != 1 {
		t.Fatal("client never saw the cascaded downlink")
	}
	if n.PendingCount() != 0 {
		t.Fatal("queue not drained")
	}
}

// livelockServer responds to every downlink-triggering uplink forever via
// a client that re-uplinks, to verify the cascade guard trips.
type pingClient struct {
	side transport.ClientSide
}

func (c *pingClient) HandleServerMessage(m protocol.Message) {
	c.side.Uplink(protocol.QueryDeregister{Query: 1})
}

func TestFlushPanicsOnLivelock(t *testing.T) {
	n := New(testConfig())
	srv := &cascadeServer{side: n.ServerSide()}
	n.AttachServer(srv)
	pc := &pingClient{side: n.ClientSide(4)}
	n.AttachClient(4, pc)
	n.ClientSide(4).Uplink(protocol.QueryDeregister{Query: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected livelock panic")
		}
	}()
	n.Flush()
}

func TestLossIsAppliedAndCounted(t *testing.T) {
	cfg := testConfig()
	cfg.UplinkLoss = 0.5
	cfg.Seed = 1
	n := New(cfg)
	rec := &recorder{}
	n.AttachServer(rec)
	const total = 1000
	for i := 0; i < total; i++ {
		n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
	}
	delivered := n.Flush()
	c := n.Counters()
	if delivered+int(c.Dropped(metrics.Uplink)) != total {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, c.Dropped(metrics.Uplink), total)
	}
	if delivered < total/4 || delivered > 3*total/4 {
		t.Fatalf("implausible delivery count %d for 50%% loss", delivered)
	}
	// Determinism: same seed gives same outcome.
	n2 := New(cfg)
	n2.AttachServer(&recorder{})
	for i := 0; i < total; i++ {
		n2.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
	}
	if d2 := n2.Flush(); d2 != delivered {
		t.Fatalf("same seed delivered %d vs %d", d2, delivered)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	bad := []Config{
		{Geometry: testConfig().Geometry, LatencyTicks: -1},
		{Geometry: testConfig().Geometry, UplinkLoss: 1.0},
		{Geometry: testConfig().Geometry, DownlinkLoss: -0.1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
	// A nil handler is refused at attach, not discovered as a nil-interface
	// call in the middle of some other client's fan-out.
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "simnet: ") {
				t.Errorf("AttachClient(id, nil): recovered %q, want a simnet: panic", msg)
			}
		}()
		New(testConfig()).AttachClient(1, nil)
	}()
}

// Re-attaching a live id replaces its handler where it sits: same slot,
// same cell, no second index entry.
func TestReattachReplacesHandlerInPlace(t *testing.T) {
	n := New(testConfig())
	n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return geo.Pt(50, 50), true })
	first, second := &recorder{}, &recorder{}
	n.AttachClient(1, &recorder{})
	n.AttachClient(2, first)
	bcast := func() int {
		n.ServerSide().Broadcast(geo.Circle{Center: geo.Pt(50, 50), R: 10}, protocol.MonitorCancel{Query: 1})
		return n.Flush()
	}
	if got := bcast(); got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	before := n.slots[n.slotOf[2]]
	n.AttachClient(2, second)
	after := n.slots[n.slotOf[2]]
	if len(n.slots) != 2 || after.cell != before.cell || after.at != before.at {
		t.Fatalf("re-attach moved the client: %d slots, cell %d→%d, at %d→%d",
			len(n.slots), before.cell, after.cell, before.at, after.at)
	}
	if got := bcast(); got != 2 {
		t.Fatalf("after re-attach delivered %d, want 2 (one entry per client)", got)
	}
	if len(first.msgs) != 1 || len(second.msgs) != 1 {
		t.Fatalf("old handler heard %d, new handler heard %d, want 1 and 1", len(first.msgs), len(second.msgs))
	}
}

func TestHandlerFuncAdapters(t *testing.T) {
	n := New(testConfig())
	var gotFrom model.ObjectID
	n.AttachServer(transport.ServerHandlerFunc(func(from model.ObjectID, m protocol.Message) {
		gotFrom = from
	}))
	var clientGot protocol.Message
	n.AttachClient(2, transport.ClientHandlerFunc(func(m protocol.Message) {
		clientGot = m
	}))
	n.ClientSide(2).Uplink(protocol.QueryDeregister{Query: 3})
	n.ServerSide().Downlink(2, protocol.MonitorCancel{Query: 3})
	n.Flush()
	if gotFrom != 2 {
		t.Fatal("ServerHandlerFunc not invoked")
	}
	if _, ok := clientGot.(protocol.MonitorCancel); !ok {
		t.Fatal("ClientHandlerFunc not invoked")
	}
}

// A grid with more columns than a client row's int16 can name keeps no
// edge tables, and every refresh re-places its clients with CellOf: a
// client past column 32 767 that moves one column on hears the broadcasts
// of its new cell and no longer those of its old one.
func TestWideGridRefreshesWithCellOf(t *testing.T) {
	geom := grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(40000, 1)), 40000, 1)
	n := New(Config{Geometry: geom})
	if n.xs != nil || n.ys != nil {
		t.Fatal("a 40000-column grid keeps edge tables")
	}
	pos := geo.Pt(35000.5, 0.5)
	n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return pos, true })
	rec := &recorder{}
	n.AttachClient(1, rec)
	for i, c := range []struct {
		at, region float64
		heard      bool
	}{
		{35000.5, 35000.5, true},
		{35001.5, 35000.5, false},
		{35001.5, 35001.5, true},
	} {
		pos = geo.Pt(c.at, 0.5)
		before := len(rec.msgs)
		n.SetNow(model.Tick(i))
		n.ServerSide().Broadcast(geo.Circle{Center: geo.Pt(c.region, 0.5), R: 0.25}, protocol.MonitorCancel{Query: 1})
		n.Flush()
		if heard := len(rec.msgs) > before; heard != c.heard {
			t.Errorf("client at x=%v, broadcast at x=%v: heard %v, want %v", c.at, c.region, heard, c.heard)
		}
	}
}
