package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
)

// An object knows its velocity from its own last fix, so the report that
// makes it a member carries it, and on a straight leg the server's track
// then holds: entering by a tick, or by a refresh install heard after or
// before that tick's Tick, it reports its per-tick displacement and is
// silent for the next five ticks (θ = 0).
func TestEnterCarriesFixVelocity(t *testing.T) {
	leg := geo.Vec(0, 10) // a tick is 1 s
	for _, c := range []struct {
		name           string
		refresh, early bool
	}{
		{"tick", false, false},
		{"refresh-after-tick", true, false},
		{"refresh-before-tick", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, side, pos, now := unitAgent(t)
			at := func(tick model.Tick) geo.Point { return geo.Pt(500, 400).Add(leg.Scale(float64(tick))) }
			step := func(tick model.Tick) {
				*now, *pos = tick, at(tick)
				a.Tick(tick)
			}
			*pos = at(0)
			enterAt, epoch := model.Tick(7), uint32(1) // a stationary circle of r_b 50 around (500, 520)
			if c.refresh {
				// Held in the annulus until a refresh moves the circle onto
				// the object at tick 3.
				a.HandleServerMessage(install(1, false, geo.Pt(500, 700), 50, 400, 0))
				enterAt, epoch = 3, 2
			} else {
				a.HandleServerMessage(install(1, false, geo.Pt(500, 520), 50, 400, 0))
			}
			for tick := model.Tick(1); tick < enterAt; tick++ {
				step(tick)
			}
			if len(side.sent) != 0 {
				t.Fatalf("object outside the answer circle sent %+v", side.sent)
			}
			if c.refresh {
				refresh := install(epoch, true, geo.Pt(500, 450), 50, 400, enterAt)
				if c.early {
					*now, *pos = enterAt, at(enterAt)
					a.HandleServerMessage(refresh)
					a.Tick(enterAt)
				} else {
					step(enterAt)
					a.HandleServerMessage(refresh)
				}
			} else {
				step(enterAt)
			}
			want := protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: 1, Epoch: epoch, Object: 7, Pos: at(enterAt), At: enterAt,
			}, Vel: leg}
			if len(side.sent) != 1 || side.sent[0] != protocol.Message(want) {
				t.Fatalf("entering sent %+v, want %+v", side.sent, want)
			}
			for tick := enterAt + 1; tick <= enterAt+5; tick++ {
				step(tick)
			}
			if len(side.sent) != 1 || !a.held()[0].inside {
				t.Fatalf("member on its reported track sent %+v after its Enter", side.sent[1:])
			}
		})
	}
}

// Agents are built on several goroutines at once, and each then ticks on
// one goroutine while another delivers installs, so Tick writes the fix
// while an install reads or writes it. Agents built alike share one record
// of constants and a traced agent keeps its own; every report carries the
// fix the object took at its tick, so on a leg of 1 m a tick its velocity
// is that leg, or zero after a tick without a fix.
func TestAgentFixRaces(t *testing.T) {
	const builders, perBuilder = 4, 16
	sink := obs.SinkFunc(func(obs.Event) {})
	type rig struct {
		a     *ObjectAgent
		side  *recClient
		now   atomic.Int64
		clock sync.RWMutex // an install is handled within one tick
	}
	rigs := make([]*rig, builders*perBuilder)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := b * perBuilder; i < (b+1)*perBuilder; i++ {
				r := &rig{side: &recClient{}}
				deps := AgentDeps{
					ID:   model.ObjectID(i),
					Side: r.side,
					Now:  func() model.Tick { return model.Tick(r.now.Load()) },
					Pos:  func() geo.Point { return geo.Pt(100+float64(r.now.Load()), 100) },
					DT:   1,
				}
				if i%8 == 7 {
					deps.Trace = sink
				}
				a, err := NewObjectAgent(Config{HorizonTicks: 4, MinProbeRadius: 10, ThetaInside: float64(i % 2)}, deps)
				if err != nil {
					t.Error(err)
					return
				}
				r.a = a
				rigs[i] = r
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range rigs {
		traced := i%8 == 7
		for j, o := range rigs[:i] {
			if shared := r.a.c == o.a.c; shared != (!traced && j%8 != 7 && i%2 == j%2) {
				t.Fatalf("agents %d and %d share constants: %v", i, j, shared)
			}
		}
	}

	const steps = 2000 // ticks, and installs
	for i, r := range rigs[:8] {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < steps; n++ {
				r.clock.Lock()
				tick := model.Tick(r.now.Add(1))
				r.clock.Unlock()
				r.a.Tick(tick)
			}
		}()
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			epoch := make(map[model.QueryID]uint32)
			for n := 0; n < steps; n++ {
				q := model.QueryID(1 + rng.Intn(3))
				epoch[q]++
				r.clock.RLock()
				now := model.Tick(r.now.Load())
				r.a.HandleServerMessage(protocol.MonitorInstall{Query: q, Epoch: epoch[q], Refresh: rng.Intn(2) == 0,
					QueryPos:     geo.Pt(100+float64(now)+float64(rng.Intn(41)-20), 100),
					AnswerRadius: 10, Radius: 30, At: now})
				r.clock.RUnlock()
			}
		}()
	}
	wg.Wait()
	reports := 0
	for i, r := range rigs[:8] {
		for _, m := range r.side.sent {
			var rep protocol.MemberReport
			var vel geo.Vector
			switch v := m.(type) {
			case protocol.EnterReport:
				rep, vel = v.MemberReport, v.Vel
			case protocol.MoveReport:
				rep, vel = v.MemberReport, v.Vel
			default:
				continue
			}
			reports++
			if want := geo.Pt(100+float64(rep.At), 100); rep.Pos != want || (vel != geo.Vec(1, 0) && vel != geo.Vector{}) {
				t.Fatalf("agent %d reported %+v at %v, want %v at 1 m/s east or at rest", i, rep, vel, want)
			}
		}
	}
	if reports < 100 {
		t.Fatalf("stream too tame: %d track reports", reports)
	}
}
