package core

import (
	"math"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// A relayed report can arrive after a newer direct one from the same
// object: here the object's move (tick 3, heading east at 1 m/s) lands
// first, then its enter (tick 2, no velocity yet), then an exit from tick
// 2. The row keeps the move's track, the object stays inside, and the
// next tick ranks it where that track puts it.
func TestOlderReportKeepsTrack(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	*now = 3
	mr := protocol.MemberReport{Query: 1, Epoch: inst.Epoch, Object: 2, Pos: geo.Pt(531, 500), At: 3}
	srv.HandleUplink(2, protocol.MoveReport{MemberReport: mr, Vel: geo.Vec(1, 0)})
	want := line{pos: geo.Pt(531, 500), vel: geo.Vec(1, 0), at: 3}

	mr.Pos, mr.At = geo.Pt(530, 500), 2
	srv.HandleUplink(2, protocol.EnterReport{MemberReport: mr})
	mr.Pos = geo.Pt(900, 900)
	srv.HandleUplink(2, protocol.ExitReport{MemberReport: mr})
	mon := srv.monitors[1]
	if r, ok := mon.tab.lookup(2); !ok || r.line != want || !r.known || !r.inside {
		t.Fatalf("row %+v (found %v), want inside on %+v", r, ok, want)
	}

	*now = 4
	srv.Tick(4)
	got := srv.Answer(1).Neighbors
	if len(got) != 2 || got[0] != (model.Neighbor{ID: 1, Dist: 10}) || got[1] != (model.Neighbor{ID: 2, Dist: 32}) {
		t.Fatalf("answer at tick 4 %v, want object 1 at 10 m and object 2 dead-reckoned to 32 m", got)
	}
}

// A full install rebuilds the server's rows from probe replies, which
// carry no velocity, so an object resets its own track to rest there too:
// a member that was reporting a heading keeps moving, and its next tick
// reports a new track.
func TestFullInstallZeroesTrack(t *testing.T) {
	a, side, pos, now := unitAgent(t)
	a.HandleServerMessage(install(1, false, geo.Pt(500, 510), 50, 300, 0))
	*now, *pos = 1, geo.Pt(510, 500)
	a.Tick(1)
	if mv, ok := side.last().(protocol.MoveReport); !ok || mv.Vel != geo.Vec(10, 0) {
		t.Fatalf("expected a MoveReport at (10, 0), got %+v", side.last())
	}
	*now, *pos = 2, geo.Pt(520, 500)
	a.Tick(2)
	n := len(side.sent)
	a.HandleServerMessage(install(2, false, geo.Pt(500, 510), 50, 300, 2))
	if got, want := a.memberOf(1), (memberState{line{pos: geo.Pt(520, 500), at: 2}}); got != want {
		t.Fatalf("member row after a full install %+v, want %+v", got, want)
	}
	if len(side.sent) != n {
		t.Fatalf("full install sent %+v", side.sent[n:])
	}
	*now, *pos = 3, geo.Pt(530, 500)
	a.Tick(3)
	if mv, ok := side.last().(protocol.MoveReport); !ok || len(side.sent) != n+1 || mv.Pos != geo.Pt(530, 500) || mv.Vel != geo.Vec(10, 0) {
		t.Fatalf("expected one MoveReport at (530, 500) heading (10, 0), got %+v", side.sent[n:])
	}
}

// A member divides by the tick length to estimate its velocity, so both
// agents refuse a tick length that is not a positive finite number.
func TestAgentsRejectBadDT(t *testing.T) {
	cfg := baseCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)))
	for _, dt := range []float64{0, -1, math.Inf(1), math.NaN()} {
		deps := AgentDeps{ID: 1, DT: dt}
		if _, err := NewObjectAgent(cfg, deps); err == nil {
			t.Errorf("ObjectAgent accepted DT %v", dt)
		}
		if _, err := NewQueryAgent(cfg, model.QuerySpec{ID: 1, K: 1}, QueryAgentDeps{AgentDeps: deps}); err == nil {
			t.Errorf("QueryAgent accepted DT %v", dt)
		}
	}
	if _, err := NewObjectAgent(cfg, AgentDeps{ID: 1, DT: 0.5}); err != nil {
		t.Errorf("ObjectAgent refused DT 0.5: %v", err)
	}
}
