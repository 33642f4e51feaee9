package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
	"dmknn/internal/workload"
)

// The side rule is pinned on r_b itself and one ulp either side of it:
// a member 5 m out (a 3-4-5 triangle, exact in binary) is inside a circle
// of radius 5 and of the next float above, and outside the next float
// below. On inputs where a fused multiply-add would round the distance
// differently, the rule switches at the rounded one, on every
// architecture.
func TestTrackInsideOnTheBoundary(t *testing.T) {
	// The member moves (1.5, 2) a tick from the origin; the query's track
	// is at rest there. At tick 2 the member is at (3, 4).
	m := line{pos: geo.Pt(0, 0), vel: geo.Vec(1.5, 2)}
	adv := line{pos: geo.Pt(0, 0)}
	for _, c := range []struct {
		rb   float64
		want bool
	}{
		{5, true},
		{math.Nextafter(5, 0), false},
		{math.Nextafter(5, math.Inf(1)), true},
	} {
		if got := trackInside(&m, &adv, c.rb, 2, 1); got != c.want {
			t.Errorf("track 5 m out, r_b %v: inside %v, want %v", c.rb, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	fused := 0
	for i := 0; i < 10000 && fused < 20; i++ {
		m := line{pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), vel: geo.Vec(rng.Float64()*20-10, rng.Float64()*20-10)}
		adv := line{pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), vel: geo.Vec(rng.Float64()*20-10, rng.Float64()*20-10),
			at: model.Tick(rng.Intn(5))}
		now, dt := model.Tick(5+rng.Intn(20)), 0.1+rng.Float64()
		p, c := m.posAt(now, dt), adv.posAt(now, dt)
		dx, dy := p.X-c.X, p.Y-c.Y
		d := math.Sqrt(float64(dx*dx) + float64(dy*dy))
		if math.Sqrt(math.FMA(dx, dx, float64(dy*dy))) == d {
			continue
		}
		fused++
		if !trackInside(&m, &adv, d, now, dt) || trackInside(&m, &adv, math.Nextafter(d, 0), now, dt) {
			t.Fatalf("track %+v, query %+v at tick %d: the rule does not switch at the rounded distance %v", m, adv, now, d)
		}
	}
	if fused == 0 {
		t.Fatal("no input where a fused multiply-add rounds the distance differently")
	}
}

// kindWatch is an object's radio, its uplinks counted by kind.
type kindWatch struct {
	transport.ClientSide
	kinds map[protocol.Kind]int
}

func (x *kindWatch) Uplink(m protocol.Message) {
	x.kinds[m.Kind()]++
	x.ClientSide.Uplink(m)
}

// silentExits counts the exits objects decided without a report.
type silentExits struct{ n atomic.Int64 }

func (s *silentExits) Record(e obs.Event) {
	if e.Type == obs.EvReportSuppressed && e.Kind == protocol.KindExitReport {
		s.n.Add(1)
	}
}

// A kNN member's side has one rule on both ends. Real agents and a server
// run over the simulated radio at zero latency, every object on straight
// waypoint legs. After every tick's last Finalize, each monitor's inside
// set on the server is exactly the set of objects holding it inside — the
// exits nobody sent and the tracks the server placed outside included —
// and no object has sent an ExitReport or a LeaveReport. Members that
// leave the circle without a report must be common, or the test shows
// nothing.
func TestComputedExitsMatchAgents(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Seed = seed
			cfg.NumObjects = 400
			cfg.NumQueries = 8
			cfg.DisableAudit = true
			silent := &silentExits{}
			cfg.Trace = silent
			pc := quickProto()
			m := mustDKNN(t, pc)
			eng, err := sim.NewEngine(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			env := eng.Env()
			kinds := map[protocol.Kind]int{}
			for i := range m.agents {
				id := model.ObjectID(i + 1)
				deps := m.agentDeps(id, func() geo.Point { return env.Objects[i].Pos })
				deps.Side = &kindWatch{ClientSide: deps.Side, kinds: kinds}
				a, err := NewObjectAgent(m.cfg, deps)
				if err != nil {
					t.Fatal(err)
				}
				m.agents[i] = a
				env.Net.AttachClient(id, a)
			}
			srv := m.Engine().(*Server)
			const ticks = 150
			for tick := 0; tick < ticks; tick++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				held := map[model.QueryID][]model.ObjectID{}
				for i, a := range m.agents {
					for _, mon := range a.held() {
						if mon.inside {
							held[mon.query] = append(held[mon.query], model.ObjectID(i+1))
						}
					}
				}
				for _, q := range srv.order {
					var inside []model.ObjectID
					for _, r := range srv.monitors[q].tab.rows {
						if r.inside {
							inside = append(inside, r.id)
						}
					}
					if !slices.Equal(inside, held[q]) {
						t.Fatalf("tick %d, query %d: server holds %v inside, the agents %v", eng.Now(), q, inside, held[q])
					}
				}
			}
			if n, l := kinds[protocol.KindExitReport], kinds[protocol.KindLeaveReport]; n+l > 0 {
				t.Errorf("kNN members sent %d ExitReports and %d LeaveReports", n, l)
			}
			if n := silent.n.Load(); n < 50 {
				t.Errorf("only %d members left the answer circle without a report", n)
			}
			t.Logf("%d silent exits; uplink by kind %v", silent.n.Load(), kinds)
		})
	}
}

// The server places a member's track report by the rule the object
// decided its side with, at the report's tick against the install it
// names: a MoveReport whose track lies outside is filed outside, at rest
// at its point, and the monitor left with fewer than k inside asks for a
// reinstall. One whose track is inside stays a member, even when it lands
// after its track has left: that crossing is the server's Tick to file.
func TestTrackReportOutsideFiledOutside(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	mon := srv.monitors[1]
	rb := inst.AnswerRadius
	move := func(id model.ObjectID, p geo.Point, vel geo.Vector, at model.Tick) {
		srv.HandleUplink(id, protocol.MoveReport{MemberReport: protocol.MemberReport{
			Query: 1, Epoch: inst.Epoch, Object: id, Pos: p, At: at,
		}, Vel: vel})
	}
	// Object 1 turns inside: still a member, on its new track.
	move(1, geo.Pt(505, 500), geo.Vec(0, 1), 1)
	if pos, _, inside := mon.stored(1); !inside || pos != geo.Pt(505, 500) {
		t.Fatalf("object 1 at %v inside %v, want (505, 500) inside", pos, inside)
	}
	// Object 3 reports at its point, 10 m beyond r_b: outside there. Two
	// members are left, k of them, so no reinstall yet.
	p3 := geo.Pt(500+rb+10, 500)
	move(3, p3, geo.Vec(1, 0), 1)
	if pos, known, inside := mon.stored(3); inside || !known || pos != p3 {
		t.Fatalf("object 3 at %v known %v inside %v, want %v outside", pos, known, inside, p3)
	}
	if mon.reinstall != noReinstall {
		t.Fatalf("reinstall %v requested with k members inside", mon.reinstall)
	}
	// Object 2's report, sent at tick 1 from just inside r_b heading out
	// at 10 m a tick, lands at tick 2, when its track is outside: the
	// object was inside when it sent it, and so is its row.
	*now = 2
	move(2, geo.Pt(500+rb-5, 500), geo.Vec(10, 0), 1)
	if _, _, inside := mon.stored(2); !inside {
		t.Fatal("object 2's report from inside filed outside")
	}
	// Its next report, from beyond r_b at tick 2, leaves one member.
	p2 := geo.Pt(500+rb+5, 500)
	move(2, p2, geo.Vec(10, 0), 2)
	if pos, _, inside := mon.stored(2); inside || pos != p2 {
		t.Fatalf("object 2 at %v inside %v, want %v outside", pos, inside, p2)
	}
	if mon.reinstall != causeUnderfull {
		t.Fatalf("reinstall %v, want underfull", mon.reinstall)
	}
}

// A computed exit keeps the row's report tick. Under latency a report
// the object sent before the server computed its exit lands after it, and
// must still apply: the object holds the track that report carried.
func TestLateMoveReportAfterComputedExit(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	mon := srv.monitors[1]
	// A fourth member keeps the buffer full after the exit below, so no
	// reinstall files the row elsewhere.
	srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 1,
	}})
	// Object 3, 60 m out, reports at tick 1 that it heads away at 10 m a
	// tick: its track leaves r_b ≈ 69.3 m between ticks 1 and 2.
	srv.HandleUplink(3, protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(560, 500), At: 1,
	}, Vel: geo.Vec(10, 0)})
	*now = 3
	srv.Tick(3)
	if _, _, inside := mon.stored(3); inside || mon.epoch != inst.Epoch {
		t.Fatalf("tick 3: object 3 inside %v at epoch %d; want its exit filed under epoch %d", inside, mon.epoch, inst.Epoch)
	}
	// The object had turned back at tick 2, still inside, and said so;
	// the report arrives only now, after the exit the server computed at
	// tick 3.
	srv.HandleUplink(3, protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(565, 500), At: 2,
	}, Vel: geo.Vec(-10, 0)})
	if pos, _, inside := mon.stored(3); !inside || pos != geo.Pt(565, 500) {
		t.Fatalf("late MoveReport from tick 2: object 3 at %v inside %v, want (565, 500) inside", pos, inside)
	}
}

// A refresh that skips an epoch tells the object one was lost, and the
// server has since judged its side against a circle the object never
// held. So the object states its side outright whatever it held: an
// on-track member that the new circle leaves outside sends the track it
// would otherwise leave to the server to place, an object that was
// outside re-sends its track, and a member still inside re-affirms.
func TestMissedEpochStatesSide(t *testing.T) {
	q := geo.Pt(500, 510)
	for _, c := range []struct {
		name       string
		inside     bool    // whether the object holds epoch 1 inside
		rb         float64 // r_b of the epoch-3 refresh
		want       protocol.Kind
		wantInside bool
	}{
		{"member left outside", true, 5, protocol.KindMoveReport, false},
		{"outsider stays outside", false, 5, protocol.KindMoveReport, false},
		{"member stays inside", true, 20, protocol.KindEnterReport, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, side, _, _ := unitAgent(t)
			rb1 := 5.0
			if c.inside {
				rb1 = 20
			}
			a.HandleServerMessage(install(1, false, q, rb1, 100, 0))
			a.HandleServerMessage(install(3, true, q, c.rb, 100, 0))
			if len(side.sent) != 1 || side.sent[0].Kind() != c.want {
				t.Fatalf("after a missed epoch sent %+v, want one %v", side.sent, c.want)
			}
			if got := a.held()[0].inside; got != c.wantInside {
				t.Fatalf("inside %v, want %v", got, c.wantInside)
			}
		})
	}
	// Without the gap, the on-track member leaves silently.
	a, side, _, _ := unitAgent(t)
	a.HandleServerMessage(install(1, false, q, 20, 100, 0))
	a.HandleServerMessage(install(2, true, q, 5, 100, 0))
	if len(side.sent) != 0 || a.held()[0].inside {
		t.Fatalf("no gap: sent %+v, inside %v; want silent and outside", side.sent, a.held()[0].inside)
	}
}
