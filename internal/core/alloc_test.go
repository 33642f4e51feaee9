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

// A candidate from the annulus entering the answer circle below rank k
// leaves the annulus table once; from then on exit and re-entry flip a
// flag in place and move one ranking entry. At steady capacity the cycle
// allocates nothing beside a manyq-sync-sized annulus, and the round's
// end sends nothing. The query advertises Vqry, so its slack is the full
// (Vobj + Vqry)·H and the region holds all 280 repliers.
func TestEnterExitCycleDoesNotAllocate(t *testing.T) {
	srv, side, now := benchServer(t)
	*now = 1
	inst := benchInstallN(t, srv, side, 10, 20+260, geo.Vector{X: 20})
	benchCheckAnnulus(t, srv, 260)
	// Object 21 is the annulus's nearest, at 63 m; the answer circle ends
	// at the 20th replier, 60 m, and rank k = 10 at 30 m.
	mr := protocol.MemberReport{Query: 1, Epoch: inst.Epoch, Object: 21, Pos: geo.Pt(545, 501), At: 1}
	var enter protocol.Message = protocol.EnterReport{MemberReport: mr}
	mr.Pos = geo.Pt(563, 500)
	var exit protocol.Message = protocol.ExitReport{MemberReport: mr}
	sends := len(side.broadcasts) + len(side.downlinks)
	if avg := testing.AllocsPerRun(200, func() {
		srv.HandleUplink(21, enter)
		srv.HandleUplink(21, exit)
		srv.Finalize(1)
	}); avg != 0 {
		t.Errorf("Enter→Exit cycle allocates %.1f times, want 0", avg)
	}
	if n := len(side.broadcasts) + len(side.downlinks) - sends; n != 0 {
		t.Errorf("the cycle sent %d messages, want none", n)
	}
}

// Members move between their reports, so every tick re-ranks every
// installed answer at its members' dead-reckoned positions. In the steady
// state — no reinstall due, nothing crossing rank k — that pass over 256
// monitors allocates nothing and sends nothing.
func TestServerTickDoesNotAllocate(t *testing.T) {
	srv, now := benchServerQueries(t, 256)
	side := srv.deps.Side.(*recSide)
	sends := len(side.broadcasts) + len(side.downlinks)
	tick := func() {
		*now = 5 - *now // 2, 3, 2, …: the ranking is re-measured every time
		srv.Tick(*now)
	}
	*now = 3
	tick()
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Errorf("Tick over 256 monitors allocates %.1f times, want 0", avg)
	}
	if n := len(side.broadcasts) + len(side.downlinks) - sends; n != 0 {
		t.Errorf("steady-state ticks sent %d messages, want none", n)
	}
	if mon := srv.monitors[1]; mon.tab.now != *now || !mon.answerPending {
		t.Fatalf("query 1 ranked at tick %d (pending %v), want re-ranked at %d", mon.tab.now, mon.answerPending, *now)
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

// A simulated run is one ObjectAgent per device, so its records' sizes
// are most of its heap: the agent fills a 128-byte size class, a monitor
// row is the query, the object's side and a pointer to the install's
// track, which the install's whole audience shares, and report state —
// the track the object last reported — is paid only per answer-circle
// membership, the first row inline in its table's record. On the server, an answer-circle row is an id, two flags and
// that track; an annulus candidate, which reports no velocity, is an id,
// a flag and a position.
func TestAgentFootprint(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ObjectAgent", unsafe.Sizeof(ObjectAgent{}), 128},
		{"agentMonitor", unsafe.Sizeof(agentMonitor{}), 16},
		{"track", unsafe.Sizeof(track{}), 64},
		{"memberState", unsafe.Sizeof(memberState{}), 40},
		{"reportTable", unsafe.Sizeof(reportTable{}), 64},
		{"member", unsafe.Sizeof(member{}), 48},
		{"annulus", unsafe.Sizeof(annulus{}), 24},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d B, want at most %d", c.name, c.got, c.want)
		}
	}
}

// The footprint as the heap sees it, size classes and table slack
// included, of a device that holds two monitors and is inside one of them:
// the agent (128 B), a two-row table (32), a one-row member table (64, the
// row inline), and the two installs' tracks (64 each).
//
// In broadcast order — the whole population hears install A, then install
// B, as fan-out delivers them — the audience shares each track: 224 B a
// device. A lone device, which hears both installs interleaved with other
// devices' and so shares with nobody, pays for both tracks itself: 352 B,
// the accepted +16 B over rows that each hold their own track.
//
// The baseline is read after two collections: one empties sync.Pools into
// their victim caches and the second frees them, so a pooled buffer left
// by an earlier test (the -run matcher's regexp leaves 32 KB) cannot die
// inside the measurement and shrink it.
func TestObjectAgentHeapPerDevice(t *testing.T) {
	inside, annulus := benchAgentInstall(1, 1, false), benchAnnulusInstall(2, 1, false)
	for _, c := range []struct {
		name      string
		broadcast bool
		limit     float64
	}{
		{"broadcast-order", true, 230},
		{"lone-device", false, 364},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 10000
			pos := geo.Pt(500, 505)
			deps := AgentDeps{
				Side: nullClientSide{},
				Now:  func() model.Tick { return 1 },
				Pos:  func() geo.Point { return pos },
				DT:   1,
			}
			agents := make([]*ObjectAgent, n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range agents {
				deps.ID = model.ObjectID(i)
				a, err := NewObjectAgent(benchCfg(), deps)
				if err != nil {
					t.Fatal(err)
				}
				if !c.broadcast {
					a.HandleServerMessage(inside)
					a.HandleServerMessage(annulus)
				}
				agents[i] = a
			}
			if c.broadcast {
				for _, msg := range []protocol.Message{inside, annulus} {
					for _, a := range agents {
						a.HandleServerMessage(msg)
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if a := agents[n-1]; a.MonitorCount() != 2 || len(a.members.more) != 0 {
				t.Fatalf("agent holds %d monitors, want 2 with one member row", a.MonitorCount())
			}
			per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%.1f B of heap per device", per)
			if per > c.limit {
				t.Errorf("%.1f B of heap per device, want at most %.0f", per, c.limit)
			}
			runtime.KeepAlive(agents)
		})
	}
}
