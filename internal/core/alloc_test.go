package core

import (
	"runtime"
	"testing"
	"unsafe"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The report → answer path is the server's per-message hot loop: applying
// an in-boundary MoveReport and recomputing the (unchanged) answer must
// not allocate — the accumulator, fill, and added/removed scratch all
// live on the monitor.
func TestReportAnswerPathDoesNotAllocate(t *testing.T) {
	srv, side, now := benchServer(t)
	*now = 1
	inst := benchInstall(t, srv, side)
	// Box the message once: the per-call interface conversion is the
	// caller's concern, not the server path under test.
	var msg protocol.Message = protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(520, 501), At: 1,
	}}
	for i := 0; i < 4; i++ {
		srv.HandleUplink(3, msg) // warm the per-monitor scratch
	}
	if avg := testing.AllocsPerRun(200, func() {
		srv.HandleUplink(3, msg)
	}); avg != 0 {
		t.Errorf("MoveReport path allocates %.1f times per report, want 0", avg)
	}
}

// Register must keep s.order sorted via binary-search insert (no full
// re-sort), and deregister must splice by binary search — out-of-order
// registration and interleaved removal exercise both.
func TestRegisterOrderMaintained(t *testing.T) {
	srv, _, now := benchServer(t)
	*now = 1
	for _, q := range []model.QueryID{40, 10, 30, 20, 50, 25} {
		srv.HandleUplink(model.ObjectID(q), protocol.QueryRegister{
			Query: q, K: 1, Pos: geo.Pt(500, 500), At: 1,
		})
	}
	want := []model.QueryID{10, 20, 25, 30, 40, 50}
	if len(srv.order) != len(want) {
		t.Fatalf("order = %v, want %v", srv.order, want)
	}
	for i, q := range want {
		if srv.order[i] != q {
			t.Fatalf("order = %v, want %v", srv.order, want)
		}
	}
	srv.HandleUplink(30, protocol.QueryDeregister{Query: 30})
	srv.HandleUplink(10, protocol.QueryDeregister{Query: 10})
	srv.HandleUplink(50, protocol.QueryDeregister{Query: 50})
	want = []model.QueryID{20, 25, 40}
	if len(srv.order) != len(want) {
		t.Fatalf("after deregister: order = %v, want %v", srv.order, want)
	}
	for i, q := range want {
		if srv.order[i] != q {
			t.Fatalf("after deregister: order = %v, want %v", srv.order, want)
		}
	}
}

// A simulated run is one ObjectAgent per device, so the three records'
// sizes are most of its heap: the agent fills a 128-byte size class, a
// monitor row is what a tick's evaluation reads, and report state is paid
// only per answer-circle membership.
func TestAgentFootprint(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ObjectAgent", unsafe.Sizeof(ObjectAgent{}), 128},
		{"agentMonitor", unsafe.Sizeof(agentMonitor{}), 80},
		{"memberState", unsafe.Sizeof(memberState{}), 32},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d B, want at most %d", c.name, c.got, c.want)
		}
	}
}

// The footprint as the heap sees it, size classes and table slack
// included: a device that holds two monitors and is inside one of them
// costs the agent (128 B), a two-row table (160), and a one-row member
// table behind its slice header (32 + 24).
func TestObjectAgentHeapPerDevice(t *testing.T) {
	const n = 10000
	pos := geo.Pt(500, 505)
	deps := AgentDeps{
		Side: nullClientSide{},
		Now:  func() model.Tick { return 1 },
		Pos:  func() geo.Point { return pos },
		DT:   1,
	}
	inside, annulus := benchAgentInstall(1, 1, false), benchAnnulusInstall(2, 1, false)
	agents := make([]*ObjectAgent, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range agents {
		deps.ID = model.ObjectID(i)
		a, err := NewObjectAgent(benchCfg(), deps)
		if err != nil {
			t.Fatal(err)
		}
		a.HandleServerMessage(inside)
		a.HandleServerMessage(annulus)
		agents[i] = a
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if a := agents[n-1]; a.MonitorCount() != 2 || len(*a.members) != 1 {
		t.Fatalf("agent holds %d monitors, want 2 with one member row", a.MonitorCount())
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.1f B of heap per device", per)
	if per > 360 {
		t.Errorf("%.1f B of heap per device, want at most 360", per)
	}
	runtime.KeepAlive(agents)
}
