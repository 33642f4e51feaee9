package core

import (
	"fmt"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// BenchmarkServerMoveReport measures the server's hottest path: applying
// an in-boundary position refresh and re-evaluating the answer. At an
// unchanged query centre that is one entry moved in the ranking; when the
// centre differs from the previous report's (the first report of a tick,
// here every report: the clock alternates under a moving query) the
// ranking is rebuilt and sorted.
func BenchmarkServerMoveReport(b *testing.B) {
	for _, inside := range []int{20, 40, 200} {
		for _, moved := range []bool{false, true} {
			name := fmt.Sprintf("inside=%d/same-centre", inside)
			if moved {
				name = fmt.Sprintf("inside=%d/centre-moved", inside)
			}
			b.Run(name, func(b *testing.B) {
				cfg := benchCfg()
				cfg.AnswerSlack = inside / 2
				srv, side, now := benchServerCfg(b, cfg)
				*now = 1
				inst := benchInstallN(b, srv, side, inside/2, inside+5, geo.Vector{X: 0.5})
				msg := protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(520, 501), At: 1,
				}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if moved {
						*now = 1 + model.Tick(i&1)
					}
					srv.HandleUplink(3, msg)
				}
			})
		}
	}
}

// The move-report path must stay allocation-free with tracing disabled:
// the emit sites are value-typed events behind a nil check, so a nil
// sink costs one branch and no boxing. Enforced as a test so plain CI
// runs catch a regression without -bench.
func TestServerMoveReportZeroAllocTracingOff(t *testing.T) {
	srv, side, now := benchServer(t)
	*now = 1
	inst := benchInstall(t, srv, side)
	msg := protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(520, 501), At: 1,
	}}
	if avg := testing.AllocsPerRun(200, func() {
		srv.HandleUplink(3, msg)
	}); avg != 0 {
		t.Errorf("MoveReport path allocates %.1f/op with tracing off, want 0", avg)
	}
}

// BenchmarkServerEnterExit measures a membership churn cycle.
func BenchmarkServerEnterExit(b *testing.B) {
	srv, side, now := benchServer(b)
	*now = 1
	inst := benchInstall(b, srv, side)
	enter := protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 99, Pos: geo.Pt(501, 500), At: 1,
	}}
	exit := protocol.ExitReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 99, Pos: geo.Pt(900, 900), At: 1,
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.HandleUplink(99, enter)
		srv.HandleUplink(99, exit)
	}
}

// benchAgent returns an agent at a fixed position holding n monitors it
// is inside of, none of which it has anything to report to.
func benchAgent(b testing.TB, n int) *ObjectAgent {
	b.Helper()
	pos := geo.Pt(500, 505)
	agent, err := NewObjectAgent(benchCfg(), AgentDeps{
		ID:   1,
		Side: nullClientSide{},
		Now:  func() model.Tick { return 1 },
		Pos:  func() geo.Point { return pos },
		DT:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for q := 1; q <= n; q++ {
		agent.HandleServerMessage(benchAgentInstall(model.QueryID(q), 1, false))
	}
	return agent
}

func benchAgentInstall(q model.QueryID, epoch uint32, refresh bool) protocol.Message {
	return protocol.MonitorInstall{
		Query: q, Epoch: epoch, Refresh: refresh, QueryPos: geo.Pt(500, 500),
		AnswerRadius: 50, Radius: 200, At: 0,
	}
}

// benchAnnulusInstall is benchAgentInstall centred so that benchAgent's
// position is in the monitoring region but outside the answer circle.
func benchAnnulusInstall(q model.QueryID, epoch uint32, refresh bool) protocol.Message {
	inst := benchAgentInstall(q, epoch, refresh).(protocol.MonitorInstall)
	inst.QueryPos = geo.Pt(500, 600)
	return inst
}

// BenchmarkAgentTick measures one object agent evaluating its monitors.
func BenchmarkAgentTick(b *testing.B) {
	for _, n := range []int{1, 10} {
		b.Run(fmt.Sprintf("monitors=%d", n), func(b *testing.B) {
			agent := benchAgent(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Tick(1)
			}
		})
	}
}

// BenchmarkAgentInstallRefresh measures an agent holding ten monitors
// hearing a refresh install of one of them — the most frequent downlink
// an object handles.
func BenchmarkAgentInstallRefresh(b *testing.B) {
	agent := benchAgent(b, 10)
	msg := benchAgentInstall(5, 2, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.HandleServerMessage(msg)
	}
}

// The per-event paths of the agent's two tables must not touch the heap:
// a refresh install of a held query — in the annulus, or inside the answer
// circle with its member row — overwrites its entry in place, and a tick
// that transmits nothing evaluates the entries where they lie.
func TestAgentTableZeroAlloc(t *testing.T) {
	agent := benchAgent(t, 10)
	agent.HandleServerMessage(benchAnnulusInstall(11, 1, false))
	msg := benchAnnulusInstall(11, 2, true) // boxed once, outside the measured loop
	if avg := testing.AllocsPerRun(200, func() { agent.HandleServerMessage(msg) }); avg != 0 {
		t.Errorf("refresh install of a held annulus row allocates %.1f/op, want 0", avg)
	}
	msg = benchAgentInstall(5, 2, true)
	if avg := testing.AllocsPerRun(200, func() { agent.HandleServerMessage(msg) }); avg != 0 {
		t.Errorf("refresh install of a held member row allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { agent.Tick(1) }); avg != 0 {
		t.Errorf("tick that transmits nothing allocates %.1f/op, want 0", avg)
	}
	if agent.MonitorCount() != 11 || len(*agent.members) != 10 {
		t.Fatalf("agent holds %d monitors and %d member rows, want 11 and 10",
			agent.MonitorCount(), len(*agent.members))
	}
}

type nullClientSide struct{}

func (nullClientSide) Uplink(protocol.Message) {}

func benchCfg() Config {
	return Config{
		HorizonTicks:   20,
		MinProbeRadius: 100,
		AnswerSlack:    10,
	}.WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)))
}

func benchServer(b testing.TB) (*Server, *recSide, *model.Tick) {
	b.Helper()
	return benchServerCfg(b, benchCfg())
}

func benchServerCfg(b testing.TB, cfg Config) (*Server, *recSide, *model.Tick) {
	b.Helper()
	now := new(model.Tick)
	side := &recSide{}
	srv, err := NewServer(cfg, ServerDeps{
		Side:           side,
		Now:            func() model.Tick { return *now },
		DT:             1,
		MaxObjectSpeed: 20,
		MaxQuerySpeed:  20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv, side, now
}

// benchInstall registers a k=10 query and completes its probe with 25
// repliers.
func benchInstall(b testing.TB, srv *Server, side *recSide) protocol.MonitorInstall {
	b.Helper()
	return benchInstallN(b, srv, side, 10, 25, geo.Vector{})
}

// benchInstallN registers query 1 with the given k and velocity and
// completes its probe with the given number of repliers, 3 m apart.
func benchInstallN(b testing.TB, srv *Server, side *recSide, k, repliers int, vel geo.Vector) protocol.MonitorInstall {
	b.Helper()
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: uint32(k), Pos: geo.Pt(500, 500), Vel: vel, At: 1})
	srv.Tick(1)
	reply := func() {
		probe, ok := side.lastBroadcast().(protocol.ProbeRequest)
		if !ok {
			return
		}
		for i := 1; i <= repliers; i++ {
			p := geo.Pt(500+float64(i)*3, 500)
			if probe.Region.Contains(p) {
				srv.HandleUplink(model.ObjectID(i), protocol.ProbeReply{
					Query: 1, Seq: probe.Seq, Object: model.ObjectID(i), Pos: p, At: 1,
				})
			}
		}
	}
	reply()
	for i := 0; i < 10 && srv.Finalize(1); i++ {
		reply()
	}
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok {
		b.Fatalf("no install; last %T", side.lastBroadcast())
	}
	return inst
}
