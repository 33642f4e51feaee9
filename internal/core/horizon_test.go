package core

import (
	"fmt"
	"math"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The reinstall horizon rule: a positive H is honoured as given; H = 0
// gives the fewest ticks whose slack reaches the answer radius, clamped
// to [1, maxHorizonTicks], and the cap when there is no motion or no
// radius to size from.
func TestDerivedHorizon(t *testing.T) {
	cases := []struct {
		name           string
		h              int
		rk, vobj, vqry float64
		dt             float64
		want           int
	}{
		{"exact multiple", 0, 100, 10, 10, 1, 5},
		{"just above a multiple", 0, 100.001, 10, 10, 1, 6},
		{"just below a multiple", 0, 99.999, 10, 10, 1, 5},
		{"sub-second tick", 0, 25, 10, 10, 0.5, 3},
		{"query at rest", 0, 45, 15, 0, 1, 3},
		{"small radius clamps at 1", 0, 1, 10, 10, 1, 1},
		{"underflowing quotient clamps at 1", 0, 5e-324, 10, 10, 1, 1},
		{"cap exactly", 0, 400, 10, 10, 1, 20},
		{"large radius clamps at the cap", 0, 1000, 10, 10, 1, 20},
		{"infinite radius", 0, math.Inf(1), 10, 10, 1, 20},
		{"zero speed", 0, 100, 0, 0, 1, 20},
		{"zero tick", 0, 100, 10, 10, 0, 20},
		{"zero radius", 0, 0, 10, 10, 1, 20},
		{"negative radius", 0, -5, 10, 10, 1, 20},
		{"NaN radius", 0, math.NaN(), 10, 10, 1, 20},
		{"explicit H below the rule", 8, 1000, 10, 10, 1, 8},
		{"explicit H above the cap", 50, 100, 10, 10, 1, 50},
		{"explicit H at zero speed", 3, 100, 0, 0, 1, 3},
	}
	for _, c := range cases {
		got := reinstallHorizon(c.h, c.rk, c.vobj, c.vqry, c.dt)
		if got != c.want {
			t.Errorf("%s: reinstallHorizon(%d, %v, %v, %v, %v) = %d, want %d",
				c.name, c.h, c.rk, c.vobj, c.vqry, c.dt, got, c.want)
		}
		// Between the clamps the derived slack reaches r_b and one tick
		// less would not.
		if step := (c.vobj + c.vqry) * c.dt; c.h == 0 && got > 1 && got < maxHorizonTicks {
			if float64(got)*step < c.rk || float64(got-1)*step >= c.rk {
				t.Errorf("%s: H_q = %d is not the fewest ticks with δ_q ≥ r_b = %v", c.name, got, c.rk)
			}
		}
	}
	if got := (Config{}).MaxHorizonTicks(); got != maxHorizonTicks {
		t.Errorf("derived MaxHorizonTicks = %d, want %d", got, maxHorizonTicks)
	}
	if got := (Config{HorizonTicks: 7}).MaxHorizonTicks(); got != 7 {
		t.Errorf("fixed MaxHorizonTicks = %d, want 7", got)
	}
}

// derivedCfg is baseCfg with the horizon left to the rule. installQuery's
// three objects (10, 30 and 60 m out, k + m = 4) give r_b = 60·√(4/3) ≈
// 69.3 m.
func derivedCfg() Config {
	cfg := baseCfg()
	cfg.HorizonTicks = 0
	return cfg
}

// derivedRows are the unit servers' derived horizons (Vobj = Vqry = 10 m
// per tick) by advertised query speed: the region moves at s_q = min(|v|,
// Vqry), an unaware object closes on it at Vobj + s_q, and H_q is the
// fewest ticks at that step that reach r_b ≈ 69.3 m. From |v| = Vqry on,
// the cap on s_q gives the rule's old values, H_q = 4 and δ_q = 80 m.
var derivedRows = []struct {
	speed float64
	h     int
	slack float64
}{
	{0, 7, 70},
	{5, 5, 75},
	{10, 4, 80},
	{30, 4, 80},
}

// With H = 0 a monitor installs R = r_b + δ_q and reinstalls exactly when
// its own H_q ticks have passed.
func TestDerivedHorizonInstallAndExpiry(t *testing.T) {
	for _, row := range derivedRows {
		t.Run(fmt.Sprintf("v=%g", row.speed), func(t *testing.T) {
			srv, side, now := unitServer(t, derivedCfg())
			*now = 1
			inst := installMovingQuery(t, srv, side, 1, geo.Vector{X: row.speed})
			checkFirstInstall(t, inst, row.h, row.slack)
			travelWithQuery(srv, inst, 1)

			pre := len(side.broadcasts)
			for tick := model.Tick(2); tick < 1+model.Tick(row.h); tick++ {
				*now = tick
				srv.Tick(tick)
				if len(side.broadcasts) != pre {
					t.Fatalf("tick %d: reinstalled before H_q = %d ticks passed", tick, row.h)
				}
			}
			*now = 1 + model.Tick(row.h)
			srv.Tick(*now)
			re, ok := side.lastBroadcast().(protocol.MonitorInstall)
			if len(side.broadcasts) != pre+1 || !ok || !re.Refresh {
				t.Fatalf("tick %d: want one refresh install at H_q, got %d broadcasts, last %T",
					*now, len(side.broadcasts)-pre, side.lastBroadcast())
			}
			checkDerivedSlack(t, re)
		})
	}
}

// A monitor that migrates keeps its horizon: the importer derives the same
// H_q from the exported answer radius and the carried advertised track,
// and reinstalls at the same tick the exporter would have.
func TestDerivedHorizonSurvivesHandoff(t *testing.T) {
	for _, row := range derivedRows {
		t.Run(fmt.Sprintf("v=%g", row.speed), func(t *testing.T) {
			srv, side, now := unitServer(t, derivedCfg())
			*now = 1
			vel := geo.Vector{X: row.speed}
			inst := installMovingQuery(t, srv, side, 1, vel)
			checkFirstInstall(t, inst, row.h, row.slack)
			travelWithQuery(srv, inst, 1)

			*now = 2
			srv.Tick(2)
			st, ok := exportOne(srv, 1)
			if !ok {
				t.Fatal("export refused")
			}
			if st.AdvVel != vel {
				t.Fatalf("exported AdvVel = %v, want %v", st.AdvVel, vel)
			}
			srv2, side2, now2 := unitServer(t, derivedCfg())
			*now2 = 2
			srv2.ImportMonitor(st, 2)
			if got := srv2.horizon(st.AnswerRadius, st.AdvVel); got != row.h {
				t.Fatalf("importer's H_q = %d, want %d", got, row.h)
			}
			for tick := model.Tick(2); tick < 1+model.Tick(row.h); tick++ {
				*now2 = tick
				srv2.Tick(tick)
				if len(side2.broadcasts) != 0 {
					t.Fatalf("tick %d: importer reinstalled before H_q", tick)
				}
			}
			*now2 = 1 + model.Tick(row.h)
			srv2.Tick(*now2)
			re, ok := side2.lastBroadcast().(protocol.MonitorInstall)
			if len(side2.broadcasts) != 1 || !ok {
				t.Fatalf("importer: want one reinstall at tick %d, got %d broadcasts", *now2, len(side2.broadcasts))
			}
			checkDerivedSlack(t, re)
		})
	}
}

// checkDerivedSlack asserts that an install's region exceeds its answer
// circle by δ_q = (Vobj + s_q)·H_q·Δt of the unit servers' speeds, where
// s_q is the advertised speed capped at Vqry and H_q follows from r_b, and
// returns H_q and δ_q.
func checkDerivedSlack(t *testing.T, inst protocol.MonitorInstall) (int, float64) {
	t.Helper()
	sq := min(inst.QueryVel.Len(), 10)
	h := reinstallHorizon(0, inst.AnswerRadius, 10, sq, 1)
	slack := inst.Radius - inst.AnswerRadius
	if want := (10 + sq) * float64(h); math.Abs(slack-want) > 1e-9 {
		t.Fatalf("install slack R − r_b = %v at r_b = %v, s_q = %v, want δ_q = %v",
			slack, inst.AnswerRadius, sq, want)
	}
	return h, slack
}

// checkFirstInstall asserts installQuery's first install against a row of
// derivedRows.
// travelWithQuery has installQuery's three members report, at now, tracks
// that move with the query's advertised track, so none leaves the answer
// circle before the horizon reinstall.
func travelWithQuery(srv *Server, inst protocol.MonitorInstall, now model.Tick) {
	for id, x := range []float64{510, 530, 560} {
		srv.HandleUplink(model.ObjectID(id+1), protocol.MoveReport{MemberReport: protocol.MemberReport{
			Query: 1, Epoch: inst.Epoch, Object: model.ObjectID(id + 1), Pos: geo.Pt(x, 500), At: now,
		}, Vel: inst.QueryVel})
	}
}

func checkFirstInstall(t *testing.T, inst protocol.MonitorInstall, wantH int, wantSlack float64) {
	t.Helper()
	if h, slack := checkDerivedSlack(t, inst); h != wantH || math.Abs(slack-wantSlack) > 1e-9 {
		t.Fatalf("r_b = %v: H_q = %d, δ_q = %v, want %d and %v", inst.AnswerRadius, h, slack, wantH, wantSlack)
	}
}

// An unaware object closes on a region that follows the advertised track
// at no more than Vobj + s_q. One that starts just outside R, ahead of the
// query, and runs head-on at Vobj toward a query on that track stays
// beyond r_b until the horizon reinstall, and the reinstall's cover
// reaches it.
func TestSlackHoldsOffHeadOnApproach(t *testing.T) {
	for _, speed := range []float64{0, 10} {
		t.Run(fmt.Sprintf("v=%g", speed), func(t *testing.T) {
			srv, side, now := unitServer(t, derivedCfg())
			*now = 1
			vel := geo.Vector{X: speed}
			inst := installMovingQuery(t, srv, side, 1, vel)
			h := model.Tick(srv.horizon(inst.AnswerRadius, vel))

			a, up, pos, anow := unitAgent(t)
			start := geo.Pt(inst.QueryPos.X+inst.Radius+1, inst.QueryPos.Y)
			*pos = start
			heard := 0
			deliver := func() {
				for _, b := range side.broadcasts[heard:] {
					if b.region.Contains(*pos) {
						a.HandleServerMessage(b.msg)
					}
				}
				heard = len(side.broadcasts)
				for _, m := range up.sent {
					srv.HandleUplink(7, m)
				}
				up.sent = nil
			}
			deliver()
			for tick := model.Tick(2); ; tick++ {
				*now, *anow = tick, tick
				*pos = geo.DeadReckon(start, geo.Vec(-10, 0), float64(tick-1))
				a.Tick(tick)
				deliver()
				if a.MonitorCount() != 0 {
					t.Fatalf("tick %d: the object heard the query before its reinstall", tick)
				}
				q := geo.DeadReckon(inst.QueryPos, vel, float64(tick-1))
				if d := pos.Dist(q); d <= inst.AnswerRadius {
					t.Fatalf("tick %d: the unaware object is %v m from the query, within r_b = %v",
						tick, d, inst.AnswerRadius)
				}
				pre := len(side.broadcasts)
				srv.Tick(tick)
				if len(side.broadcasts) == pre {
					continue
				}
				cover, re := side.broadcasts[pre].region, side.broadcasts[pre].msg
				if _, ok := re.(protocol.MonitorInstall); !ok || tick != 1+h {
					t.Fatalf("tick %d: broadcast %T, want the horizon reinstall at tick %d", tick, re, 1+h)
				}
				if !cover.Contains(*pos) {
					t.Fatalf("reinstall cover %v misses the object at %v", cover, *pos)
				}
				deliver()
				if a.MonitorCount() != 1 {
					t.Fatal("the object did not take the reinstall")
				}
				return
			}
		})
	}
}

// Under delivery latency L the aware objects follow a stale track for 2L
// ticks before a correcting install lands, and the query may leave it at
// Vqry + s_q meanwhile: at L = 1 the slack carries 2·(Vqry + s_q)·Δt on
// top of (Vobj + s_q)·H_q·Δt.
func TestSlackCoversReactionWindow(t *testing.T) {
	for _, speed := range []float64{0, 5, 10} {
		t.Run(fmt.Sprintf("v=%g", speed), func(t *testing.T) {
			now := model.Tick(1)
			side := &recSide{}
			srv, err := NewServer(derivedCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))),
				ServerDeps{Side: side, Now: func() model.Tick { return now }, DT: 1,
					MaxObjectSpeed: 10, MaxQuerySpeed: 10, LatencyTicks: 1})
			if err != nil {
				t.Fatal(err)
			}
			vel := geo.Vector{X: speed}
			srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), Vel: vel, At: 1})
			srv.Tick(1)
			for i := 0; i < 8; i++ {
				if probe, ok := side.lastBroadcast().(protocol.ProbeRequest); ok {
					for id, x := range map[model.ObjectID]float64{1: 510, 2: 530, 3: 560} {
						srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: id, Pos: geo.Pt(x, 500)})
					}
				}
				now += 2 // a probe round concludes a round trip after it went out
				srv.Finalize(now)
				inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
				if !ok {
					continue
				}
				h := reinstallHorizon(0, inst.AnswerRadius, 10, speed, 1)
				reaction := 2 * (10 + speed)
				if slack := inst.Radius - inst.AnswerRadius; math.Abs(slack-(10+speed)*float64(h)-reaction) > 1e-9 {
					t.Fatalf("R − r_b = %v at r_b = %v, want (Vobj + s_q)·H_q = %v plus 2·(Vqry + s_q) = %v",
						slack, inst.AnswerRadius, (10+speed)*float64(h), reaction)
				}
				return
			}
			t.Fatal("no install")
		})
	}
}
