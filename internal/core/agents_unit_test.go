package core

import (
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// recClient records uplinks.
type recClient struct {
	sent []protocol.Message
}

func (r *recClient) Uplink(m protocol.Message) { r.sent = append(r.sent, m) }

func (r *recClient) last() protocol.Message {
	if len(r.sent) == 0 {
		return nil
	}
	return r.sent[len(r.sent)-1]
}

// unitAgent builds an object agent with a movable position and a
// controllable clock.
func unitAgent(t *testing.T) (*ObjectAgent, *recClient, *geo.Point, *model.Tick) {
	t.Helper()
	pos := &geo.Point{X: 500, Y: 500}
	now := new(model.Tick)
	side := &recClient{}
	cfg := baseCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)))
	a, err := NewObjectAgent(cfg, AgentDeps{
		ID:   7,
		Side: side,
		Now:  func() model.Tick { return *now },
		Pos:  func() geo.Point { return *pos },
		DT:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, side, pos, now
}

func install(epoch uint32, refresh bool, q geo.Point, rk, radius float64, at model.Tick) protocol.MonitorInstall {
	return protocol.MonitorInstall{
		Query: 1, Epoch: epoch, Refresh: refresh,
		QueryPos: q, AnswerRadius: rk, Radius: radius, At: at,
	}
}

func TestAgentAnswersProbeOnlyInsideRegion(t *testing.T) {
	a, side, _, _ := unitAgent(t)
	a.HandleServerMessage(protocol.ProbeRequest{
		Query: 1, Seq: 3, Region: geo.Circle{Center: geo.Pt(500, 520), R: 50},
	})
	rep, ok := side.last().(protocol.ProbeReply)
	if !ok {
		t.Fatal("no probe reply")
	}
	if rep.Object != 7 || rep.Seq != 3 || rep.Pos != geo.Pt(500, 500) {
		t.Fatalf("reply = %+v", rep)
	}
	// Outside the region: silent.
	n := len(side.sent)
	a.HandleServerMessage(protocol.ProbeRequest{
		Query: 1, Seq: 4, Region: geo.Circle{Center: geo.Pt(0, 0), R: 50},
	})
	if len(side.sent) != n {
		t.Fatal("replied to a probe it is not inside")
	}
}

func TestAgentFullInstallBaselinesSilently(t *testing.T) {
	a, side, _, _ := unitAgent(t)
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 20, 100, 0))
	if len(side.sent) != 0 {
		t.Fatalf("full install triggered %d uplinks", len(side.sent))
	}
	if a.MonitorCount() != 1 {
		t.Fatal("monitor not stored")
	}
	// Stale epoch rebroadcast is ignored.
	a.HandleServerMessage(install(0, false, geo.Pt(0, 0), 1, 2, 0))
	if a.MonitorCount() != 1 {
		t.Fatal("stale install mutated state")
	}
}

func TestAgentInstallOutsideRegionDropsMonitor(t *testing.T) {
	a, side, _, _ := unitAgent(t)
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 20, 100, 0))
	// New epoch centered far away: we are outside -> drop, silently for a
	// full install.
	a.HandleServerMessage(install(2, false, geo.Pt(0, 0), 20, 100, 0))
	if a.MonitorCount() != 0 {
		t.Fatal("monitor not dropped")
	}
	if len(side.sent) != 0 {
		t.Fatal("unexpected uplink")
	}
}

func TestAgentRefreshReportsSideChanges(t *testing.T) {
	a, side, pos, _ := unitAgent(t)
	// Baseline: inside region, outside boundary (d=10 > rk=5).
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 5, 100, 0))
	// Refresh with a larger boundary: we are now inside -> EnterReport.
	a.HandleServerMessage(install(2, true, geo.Pt(500, 510), 20, 100, 0))
	if _, ok := side.last().(protocol.EnterReport); !ok {
		t.Fatalf("expected EnterReport, got %T", side.last())
	}
	// Refresh shrinking the boundary below our reported track: the server
	// holds that track and files the exit itself -> silent, and outside.
	n := len(side.sent)
	a.HandleServerMessage(install(3, true, geo.Pt(500, 510), 5, 100, 0))
	if len(side.sent) != n || a.held()[0].inside {
		t.Fatalf("on-track exit: sent %+v, inside %v; want nothing sent and outside", side.sent[n:], a.held()[0].inside)
	}
	// Refresh with no side change -> silent.
	a.HandleServerMessage(install(4, true, geo.Pt(500, 510), 5, 100, 0))
	if len(side.sent) != n {
		t.Fatal("refresh without side change sent a report")
	}
	// Inside again, then off the reported track when the boundary
	// shrinks below us -> a MoveReport: the server's track is not ours,
	// so we send the one it places outside.
	a.HandleServerMessage(install(5, true, geo.Pt(500, 510), 20, 100, 0))
	if _, ok := side.last().(protocol.EnterReport); !ok {
		t.Fatalf("expected EnterReport, got %T", side.last())
	}
	*pos = geo.Pt(501, 500)
	a.HandleServerMessage(install(6, true, geo.Pt(500, 510), 5, 100, 0))
	if mv, ok := side.last().(protocol.MoveReport); !ok || mv.Pos != *pos || a.held()[0].inside {
		t.Fatalf("expected a MoveReport from %v and outside, got %+v", *pos, side.last())
	}
}

func TestAgentRefreshExitWhenPushedOutOfRegion(t *testing.T) {
	for _, moved := range []bool{false, true} {
		a, side, pos, _ := unitAgent(t)
		// Inside the boundary initially.
		a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 20, 100, 0))
		if moved {
			*pos = geo.Pt(501, 500)
		}
		// The region moves away entirely; we were a member -> drop. On the
		// track the server holds, the exit is the server's to file; off
		// it, a MoveReport gives the server the track it places outside.
		a.HandleServerMessage(install(2, true, geo.Pt(0, 0), 20, 100, 0))
		if _, ok := side.last().(protocol.MoveReport); ok != moved {
			t.Fatalf("moved %v: last uplink %T, want a MoveReport exactly when moved", moved, side.last())
		}
		if a.MonitorCount() != 0 {
			t.Fatal("monitor not dropped")
		}
	}
}

func TestAgentTickCrossingEvents(t *testing.T) {
	a, side, pos, now := unitAgent(t)
	// Stationary query at (500,510), boundary 20, region 100. We start at
	// d=10: inside.
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 20, 100, 0))

	// Move to d=30, off the track at rest the full install left: the new
	// track, reported as a MoveReport, lies outside.
	*now = 1
	*pos = geo.Pt(500, 540)
	a.Tick(1)
	if _, ok := side.last().(protocol.MoveReport); !ok || a.held()[0].inside {
		t.Fatalf("expected a MoveReport and outside, got %T", side.last())
	}

	// Move back to d=5: enter, on the track of the last tick's move, 25 m
	// south.
	*now = 2
	*pos = geo.Pt(500, 515)
	a.Tick(2)
	if en, ok := side.last().(protocol.EnterReport); !ok || en.Vel != geo.Vec(0, -25) {
		t.Fatalf("expected an EnterReport at 25 m/s south, got %+v", side.last())
	}

	// The object stops short and moves 1 m east instead, which leaves the
	// track (θ=0): a MoveReport whose velocity is the move, 1 m over 1
	// tick.
	step := func(tick model.Tick, p geo.Point) {
		*now, *pos = tick, p
		a.Tick(tick)
	}
	step(3, geo.Pt(501, 515))
	if mv, ok := side.last().(protocol.MoveReport); !ok || mv.Vel != geo.Vec(1, 0) {
		t.Fatalf("expected a MoveReport at 1 m/s east, got %+v", side.last())
	}

	// Moving on along that track: silent.
	n := len(side.sent)
	step(4, geo.Pt(502, 515))
	step(5, geo.Pt(503, 515))
	if len(side.sent) != n {
		t.Fatalf("object on its reported track sent %+v", side.sent[n:])
	}

	// A turn leaves the track: one MoveReport, with the velocity of the
	// last tick's move, 1 m east and 1 m north.
	step(6, geo.Pt(504, 516))
	if mv, ok := side.last().(protocol.MoveReport); !ok || len(side.sent) != n+1 || mv.Vel != geo.Vec(1, 1) {
		t.Fatalf("expected one MoveReport at (1, 1) m/s, got %+v", side.sent[n:])
	}

	// Stopping leaves the track too, since the track still has the
	// object moving: one MoveReport with zero velocity.
	step(7, geo.Pt(504, 516))
	if mv, ok := side.last().(protocol.MoveReport); !ok || len(side.sent) != n+2 || mv.Vel != (geo.Vector{}) {
		t.Fatalf("expected one MoveReport at rest, got %+v", side.sent[n+1:])
	}

	// Stopped, on its track at rest: silent.
	step(8, geo.Pt(504, 516))
	step(9, geo.Pt(504, 516))
	if len(side.sent) != n+2 {
		t.Fatalf("stopped inside object reported %+v", side.sent[n+2:])
	}

	// Leave the region entirely while a member: off its track, it reports
	// the new one, which the server files outside, and drops the monitor.
	step(10, geo.Pt(500, 900))
	if mv, ok := side.last().(protocol.MoveReport); !ok || len(side.sent) != n+3 || mv.Pos != geo.Pt(500, 900) {
		t.Fatalf("expected one MoveReport at (500, 900), got %+v", side.sent[n+2:])
	}
	if a.MonitorCount() != 0 {
		t.Fatal("monitor retained after leave")
	}
}

func TestAgentAnnulusLeaveIsSilent(t *testing.T) {
	a, side, pos, now := unitAgent(t)
	// Start in the annulus: d=50 > rk=20, inside region 100.
	a.HandleServerMessage(install(1, false, geo.Pt(500, 550), 20, 100, 0))
	if a.MonitorCount() != 1 {
		t.Fatal("annulus object should monitor")
	}
	n := len(side.sent)
	*now = 1
	*pos = geo.Pt(500, 400) // d=150 > region
	a.Tick(1)
	if len(side.sent) != n {
		t.Fatalf("annulus leave sent %d uplinks", len(side.sent)-n)
	}
	if a.MonitorCount() != 0 {
		t.Fatal("monitor retained")
	}
}

func TestAgentMonitorCancel(t *testing.T) {
	a, _, _, _ := unitAgent(t)
	a.HandleServerMessage(install(2, false, geo.Pt(500, 510), 20, 100, 0))
	// Older-epoch cancel is ignored.
	a.HandleServerMessage(protocol.MonitorCancel{Query: 1, Epoch: 1})
	if a.MonitorCount() != 1 {
		t.Fatal("stale cancel removed the monitor")
	}
	a.HandleServerMessage(protocol.MonitorCancel{Query: 1, Epoch: 2})
	if a.MonitorCount() != 0 {
		t.Fatal("cancel ignored")
	}
	// Cancel for an unknown query is a no-op.
	a.HandleServerMessage(protocol.MonitorCancel{Query: 9, Epoch: 1})
}

// Race regression: a deregistration's MonitorCancel (epoch E) can be
// reordered behind a same-tick reinstall for a new registration of the
// same query (epoch E+1) under jitter. The stale cancel must not drop the
// freshly installed monitor; an exact-epoch cancel still must.
func TestAgentCancelRacedWithReinstallKeepsFreshMonitor(t *testing.T) {
	a, _, _, _ := unitAgent(t)
	a.HandleServerMessage(install(5, false, geo.Pt(500, 510), 20, 100, 0))
	// The reinstall (epoch 6) wins the race and arrives first...
	a.HandleServerMessage(install(6, false, geo.Pt(500, 510), 20, 100, 0))
	// ...then the cancel for the torn-down epoch-5 monitor lands.
	a.HandleServerMessage(protocol.MonitorCancel{Query: 1, Epoch: 5})
	if a.MonitorCount() != 1 {
		t.Fatal("raced cancel dropped the freshly installed monitor")
	}
	a.HandleServerMessage(protocol.MonitorCancel{Query: 1, Epoch: 6})
	if a.MonitorCount() != 0 {
		t.Fatal("current-epoch cancel ignored")
	}
}

func TestAgentDeadReckonsMovingQuery(t *testing.T) {
	a, side, _, now := unitAgent(t)
	// Query at (500,520) moving +y at 10 m/s, boundary 25. We are at
	// d=20: inside at install time.
	a.HandleServerMessage(protocol.MonitorInstall{
		Query: 1, Epoch: 1, QueryPos: geo.Pt(500, 520), QueryVel: geo.Vec(0, 10),
		AnswerRadius: 25, Radius: 300, At: 0,
	})
	// Two ticks later the query is predicted at (500,540): d=40 > 25 even
	// though we never moved -> outside. We are still on the track the
	// server holds (at rest), so the server computes the same exit and
	// nothing is sent.
	*now = 2
	a.Tick(2)
	if len(side.sent) != 0 || a.held()[0].inside {
		t.Fatalf("dead-reckoned exit: sent %+v, inside %v; want nothing sent and outside", side.sent, a.held()[0].inside)
	}
}

func TestQueryAgentRegistersAndCorrectsTrack(t *testing.T) {
	side := &recClient{}
	now := new(model.Tick)
	pos := geo.Pt(100, 100)
	vel := geo.Vec(5, 0)
	cfg := baseCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)))
	qa, err := NewQueryAgent(cfg, model.QuerySpec{ID: 3, K: 4, Pos: pos},
		QueryAgentDeps{
			AgentDeps: AgentDeps{
				ID: 200, Side: side,
				Now: func() model.Tick { return *now },
				Pos: func() geo.Point { return pos },
				DT:  1,
			},
			Vel: func() geo.Vector { return vel },
		})
	if err != nil {
		t.Fatal(err)
	}

	*now = 1
	qa.Tick(1)
	reg, ok := side.last().(protocol.QueryRegister)
	if !ok || reg.Query != 3 || reg.K != 4 {
		t.Fatalf("registration = %#v", side.last())
	}

	// Moving exactly along the advertised track: silent.
	*now = 2
	pos = geo.Pt(105, 100)
	n := len(side.sent)
	qa.Tick(2)
	if len(side.sent) != n {
		t.Fatal("on-track query sent a correction")
	}

	// Deviating: QueryMove.
	*now = 3
	pos = geo.Pt(105, 130)
	qa.Tick(3)
	if _, ok := side.last().(protocol.QueryMove); !ok {
		t.Fatalf("expected QueryMove, got %T", side.last())
	}

	// Answer updates are stored and surfaced via the callback.
	got := 0
	qa.OnAnswer = func(model.Answer) { got++ }
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 3, At: 3,
		Neighbors: []model.Neighbor{{ID: 8, Dist: 2}}})
	if got != 1 {
		t.Fatal("OnAnswer not invoked")
	}
	if a := qa.Answer(); len(a.Neighbors) != 1 || a.Neighbors[0].ID != 8 {
		t.Fatalf("stored answer = %v", a)
	}
	// Updates for other queries are ignored.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 99})
	if a := qa.Answer(); len(a.Neighbors) != 1 {
		t.Fatal("foreign answer applied")
	}

	// Deregister emits the message and allows re-registration.
	qa.Deregister()
	if _, ok := side.last().(protocol.QueryDeregister); !ok {
		t.Fatalf("expected QueryDeregister, got %T", side.last())
	}
	*now = 4
	qa.Tick(4)
	if _, ok := side.last().(protocol.QueryRegister); !ok {
		t.Fatalf("expected re-registration, got %T", side.last())
	}
}

func TestNewAgentValidation(t *testing.T) {
	bad := Config{} // invalid
	if _, err := NewObjectAgent(bad, AgentDeps{}); err == nil {
		t.Error("ObjectAgent accepted invalid config")
	}
	if _, err := NewQueryAgent(bad, model.QuerySpec{ID: 1, K: 1}, QueryAgentDeps{}); err == nil {
		t.Error("QueryAgent accepted invalid config")
	}
	good := baseCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)))
	if _, err := NewQueryAgent(good, model.QuerySpec{ID: 1, K: 0}, QueryAgentDeps{}); err == nil {
		t.Error("QueryAgent accepted k=0")
	}
}

// Regression: a refresh install must NOT silently re-baseline the
// last-reported track of an object that drifted inside the boundary — the
// server still holds the old track, so the drift has to surface as a
// MoveReport at the next tick. Refreshes then leave the reported track in
// place: on it the object is silent, and stopping leaves it.
func TestRefreshPreservesLastReportBaseline(t *testing.T) {
	a, side, pos, now := unitAgent(t)
	// Inside the boundary at (500,500); server knows this position.
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 50, 300, 0))
	// Drift within the boundary, then receive a silent refresh BEFORE the
	// next tick (the race: move and install in the same interval).
	*pos = geo.Pt(520, 500)
	a.HandleServerMessage(install(2, true, geo.Pt(500, 510), 50, 300, 0))
	n := len(side.sent)
	// The next tick must transmit the drift even though the object no
	// longer moves.
	*now = 1
	a.Tick(1)
	if len(side.sent) != n+1 {
		t.Fatalf("drift swallowed by refresh: %d new uplinks, want 1", len(side.sent)-n)
	}
	mv, ok := side.last().(protocol.MoveReport)
	if !ok {
		t.Fatalf("expected MoveReport, got %T", side.last())
	}
	if mv.Pos != geo.Pt(520, 500) || mv.Vel != geo.Vec(20, 0) {
		t.Fatalf("MoveReport track %v at %v, want (520, 500) at (20, 0)", mv.Pos, mv.Vel)
	}
	// Moving on along the reported track, across a refresh: silent.
	a.HandleServerMessage(install(3, true, geo.Pt(500, 510), 50, 300, 1))
	n = len(side.sent)
	*now, *pos = 2, geo.Pt(540, 500)
	a.Tick(2)
	if len(side.sent) != n {
		t.Fatalf("report on the reported track after a refresh: %+v", side.sent[n:])
	}
	// A turn, then a stop: one MoveReport each, the second at rest.
	*now, *pos = 3, geo.Pt(540, 510)
	a.Tick(3)
	a.HandleServerMessage(install(4, true, geo.Pt(500, 510), 50, 300, 3))
	*now = 4
	a.Tick(4)
	if len(side.sent) != n+2 {
		t.Fatalf("turn and stop sent %d uplinks, want 2", len(side.sent)-n)
	}
	if turn := side.sent[n].(protocol.MoveReport); turn.Vel != geo.Vec(0, 10) {
		t.Fatalf("turn reported at %v, want (0, 10): the last tick's 10 m north", turn.Vel)
	}
	if stop := side.sent[n+1].(protocol.MoveReport); stop.Vel != (geo.Vector{}) {
		t.Fatalf("stop reported at %v, want at rest", stop.Vel)
	}
	// Stopped: a further refresh + tick stays silent.
	a.HandleServerMessage(install(5, true, geo.Pt(500, 510), 50, 300, 4))
	*now = 5
	a.Tick(5)
	if len(side.sent) != n+2 {
		t.Fatalf("stopped object reported %+v", side.sent[n+2:])
	}
}
