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

// exitWatch is an object's radio, counted by kind. It mirrors the track
// the server holds for each of the object's memberships, from the
// snapshot taken after the last step and the reports sent since, and
// counts every ExitReport sent by a kNN member still on that track.
type exitWatch struct {
	transport.ClientSide
	w  *exitRig
	id model.ObjectID
}

type memberKey struct {
	id model.ObjectID
	q  model.QueryID
}

type exitRig struct {
	dt      float64
	theta   float64
	kinds   map[protocol.Kind]int
	tracks  map[memberKey]line // kNN memberships only
	onTrack int                // ExitReports sent by members on their track
}

func (x *exitWatch) Uplink(m protocol.Message) {
	w := x.w
	w.kinds[m.Kind()]++
	switch v := m.(type) {
	case protocol.EnterReport:
		w.tracks[memberKey{x.id, v.Query}] = line{v.Pos, v.Vel, v.At}
	case protocol.MoveReport:
		w.tracks[memberKey{x.id, v.Query}] = line{v.Pos, v.Vel, v.At}
	case protocol.ExitReport:
		key := memberKey{x.id, v.Query}
		if l, ok := w.tracks[key]; ok && v.Pos.Dist(l.posAt(v.At, w.dt)) <= w.theta+trackEpsilon {
			w.onTrack++
		}
		delete(w.tracks, key)
	case protocol.LeaveReport:
		delete(w.tracks, memberKey{x.id, v.Query})
	}
	x.ClientSide.Uplink(m)
}

// silentExits counts the exits objects decided without a report.
type silentExits struct{ n atomic.Int64 }

func (s *silentExits) Record(e obs.Event) {
	if e.Type == obs.EvReportSuppressed && e.Kind == protocol.KindExitReport {
		s.n.Add(1)
	}
}

// A crossing the server can compute is not sent. Real agents and a server
// run over the simulated radio at zero latency, every object on straight
// waypoint legs. After every tick's last Finalize, each monitor's inside
// set on the server is exactly the set of objects holding it inside — the
// exits nobody sent included — and no member still on the track the
// server holds has sent an ExitReport. Members that leave the circle
// without a report must be common, or the test shows nothing.
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
			rig := &exitRig{dt: env.DT, theta: pc.ThetaInside, kinds: map[protocol.Kind]int{}, tracks: map[memberKey]line{}}
			for i := range m.agents {
				id := model.ObjectID(i + 1)
				deps := m.agentDeps(id, func() geo.Point { return env.Objects[i].Pos })
				deps.Side = &exitWatch{ClientSide: deps.Side, w: rig, id: id}
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
				clear(rig.tracks)
				for i, a := range m.agents {
					id := model.ObjectID(i + 1)
					for _, mon := range a.held() {
						if !mon.inside {
							continue
						}
						held[mon.query] = append(held[mon.query], id)
						if !mon.tr.rangeMode {
							rig.tracks[memberKey{id, mon.query}] = a.memberOf(mon.query).line
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
			if rig.onTrack > 0 {
				t.Errorf("%d ExitReports sent by members on their track", rig.onTrack)
			}
			if n := silent.n.Load(); n < 50 {
				t.Errorf("only %d members left the answer circle without a report", n)
			}
			t.Logf("%d silent exits; uplink by kind %v", silent.n.Load(), rig.kinds)
		})
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
	// The object had turned back at tick 2 and said so; the report arrives
	// only now, after the exit the server computed at tick 3.
	srv.HandleUplink(3, protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 3, Pos: geo.Pt(570, 500), At: 2,
	}, Vel: geo.Vec(-10, 0)})
	if pos, _, inside := mon.stored(3); !inside || pos != geo.Pt(570, 500) {
		t.Fatalf("late MoveReport from tick 2: object 3 at %v inside %v, want (570, 500) inside", pos, inside)
	}
}

// A refresh that skips an epoch tells the object one was lost, and the
// server has since judged its side against a circle the object never
// held. So the object states its side outright whatever it held: an
// on-track member that the new circle leaves outside sends the exit it
// would otherwise leave to the server, an object that was outside says so
// again, and a member still inside re-affirms.
func TestMissedEpochStatesSide(t *testing.T) {
	q := geo.Pt(500, 510)
	for _, c := range []struct {
		name       string
		inside     bool    // whether the object holds epoch 1 inside
		rb         float64 // r_b of the epoch-3 refresh
		want       protocol.Kind
		wantInside bool
	}{
		{"member left outside", true, 5, protocol.KindExitReport, false},
		{"outsider stays outside", false, 5, protocol.KindExitReport, false},
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
