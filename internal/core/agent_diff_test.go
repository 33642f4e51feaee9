package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The object agent as it held its monitors before the dense table — a map
// of heap-allocated monitors plus a sorted id slice — kept as the
// reference TestAgentTableMatchesMap compares the tables against. The
// protocol logic is the production agent's, statement for statement; the
// storage is not: every oracle monitor carries its reported track
// (lastReport, lastSentAt, lastVel), inside the answer circle or not,
// where production keeps it in the member table only while inside is set.
// Both agents read the track only where inside is set — tick's
// `side && !rangeMode` arm, handleInstall's prev fields and every use
// under prev.inside — so the oracle's copies on rows outside the answer
// circle are dead and compare() does not look at them. Every track report
// carries the velocity of the object's one fix, which a tick of a holding
// agent and every install write: the displacement from the fix a tick
// older, zero after a longer gap, and zero for a range monitor's member. A monitor
// left in a tick stops being inside at once, as production drops its
// member row at once. Every distance from the query is measured from its
// advertised track dead-reckoned to now, as a rounded-product root. A kNN
// member on the track it reported takes its side of the answer circle
// from the track (trackInside) and leaves it silently: the server files
// that crossing. Off it, or out of the region on a track still inside,
// it reports its new track as a MoveReport, whichever side that lands
// on; no kNN object sends an ExitReport. A refresh that skips an epoch
// makes the object state its side outright.

type oracleAgent struct {
	cfg  Config
	deps AgentDeps

	monitors map[model.QueryID]*oracleAgentMonitor
	order    []model.QueryID // sorted, for deterministic send order

	fixed  bool // a fix was taken
	fixPos geo.Point
	fixVel geo.Vector
	fixAt  model.Tick
}

func newOracleAgent(cfg Config, deps AgentDeps) (*oracleAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &oracleAgent{
		cfg:      cfg,
		deps:     deps,
		monitors: make(map[model.QueryID]*oracleAgentMonitor),
	}, nil
}

type oracleAgentMonitor struct {
	epoch        uint32
	qpos         geo.Point
	qvel         geo.Vector
	at           model.Tick
	answerRadius float64
	radius       float64
	rangeMode    bool
	inside       bool

	lastReport geo.Point
	lastSentAt model.Tick
	lastVel    geo.Vector
}

// trackAt is where mon's last report puts the object at now.
func (mon *oracleAgentMonitor) trackAt(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(mon.lastReport, mon.lastVel, float64(now-mon.lastSentAt)*dt)
}

// trackInside reports whether mon's reported track lies within rb of the
// query track (qpos, qvel, qat) at now.
func (mon *oracleAgentMonitor) trackInside(now model.Tick, dt float64, qpos geo.Point, qvel geo.Vector, qat model.Tick, rb float64) bool {
	p := mon.trackAt(now, dt)
	return oracleDist(p, geo.DeadReckon(qpos, qvel, float64(now-qat)*dt)) <= rb
}

// oracleDist is p's distance from c, from rounded products.
func oracleDist(p, c geo.Point) float64 {
	dx, dy := p.X-c.X, p.Y-c.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// observe takes the fix p at now, unless one was taken at now, and
// returns the fix's velocity.
func (a *oracleAgent) observe(p geo.Point, now model.Tick) geo.Vector {
	if a.fixed && a.fixAt == now {
		return a.fixVel
	}
	a.fixVel = geo.Vector{}
	if a.fixed && a.fixAt == now-1 {
		a.fixVel = geo.Vec((p.X-a.fixPos.X)*(1/a.deps.DT), (p.Y-a.fixPos.Y)*(1/a.deps.DT))
	}
	a.fixed, a.fixPos, a.fixAt = true, p, now
	return a.fixVel
}

// enterVel is the velocity a track report carries: the fix's, or zero for
// a range monitor's member, which reports no move.
func (a *oracleAgent) enterVel(rangeMode bool) geo.Vector {
	if rangeMode {
		return geo.Vector{}
	}
	return a.fixVel
}

func (a *oracleAgent) MonitorCount() int {
	return len(a.monitors)
}

func (a *oracleAgent) handle(msg protocol.Message) {
	switch v := msg.(type) {
	case protocol.ProbeRequest:
		if p := a.deps.Pos(); v.Region.Contains(p) {
			now := a.deps.Now()
			a.deps.Side.Uplink(protocol.ProbeReply{
				Query: v.Query, Seq: v.Seq, Object: a.deps.ID, Pos: p,
				At: now,
			})
		}
	case protocol.MonitorInstall:
		a.handleInstall(v)
	case protocol.MonitorCancel:
		if mon, ok := a.monitors[v.Query]; ok && v.Epoch >= mon.epoch {
			a.drop(v.Query)
		}
	}
}

func (a *oracleAgent) handleInstall(v protocol.MonitorInstall) {
	prev, had := a.monitors[v.Query]
	if had && v.Epoch < prev.epoch {
		return // stale rebroadcast
	}
	p := a.deps.Pos()
	now := a.deps.Now()
	a.observe(p, now)
	d := oracleDist(p, geo.DeadReckon(v.QueryPos, v.QueryVel, float64(now-v.At)*a.deps.DT))
	side := d <= v.AnswerRadius
	held := d <= v.Radius
	reported := false
	var vel geo.Vector // a full install leaves the track at rest
	if v.Refresh {
		missed := had && v.Epoch > prev.epoch+1 // an install was lost: report the side outright
		onTrack := false                        // the side is the reported track's
		if had && prev.inside && !v.RangeMode && !missed &&
			p.Dist(prev.trackAt(now, a.deps.DT)) <= a.cfg.ThetaInside+trackEpsilon {
			if in := prev.trackInside(now, a.deps.DT, v.QueryPos, v.QueryVel, v.At, v.AnswerRadius); held || !in {
				side, onTrack = in, true
			}
		}
		affirm := side && had && prev.inside &&
			(missed || now-prev.lastSentAt >= model.Tick(a.cfg.MaxHorizonTicks()))
		switch {
		case side && (!(had && prev.inside) || affirm) && d <= v.AnswerRadius:
			vel = a.enterVel(v.RangeMode)
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}, Vel: vel})
			reported = true
		case side && affirm: // on a track inside, from a position outside
			vel = a.enterVel(v.RangeMode)
			a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}, Vel: vel})
			side, reported = false, true
		case !side && had && (prev.inside || missed) && !onTrack && v.RangeMode:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			reported = true
		case !side && had && (prev.inside || missed) && !onTrack:
			a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}, Vel: a.enterVel(false)})
			reported = true
		}
	}
	if !held {
		a.drop(v.Query)
		return
	}
	last, sentAt := p, now
	if v.Refresh && had && !reported {
		last, sentAt, vel = prev.lastReport, prev.lastSentAt, prev.lastVel
	}
	if !had {
		a.order = append(a.order, v.Query)
		sort.Slice(a.order, func(i, j int) bool { return a.order[i] < a.order[j] })
	}
	a.monitors[v.Query] = &oracleAgentMonitor{
		epoch:        v.Epoch,
		qpos:         v.QueryPos,
		qvel:         v.QueryVel,
		at:           v.At,
		answerRadius: v.AnswerRadius,
		radius:       v.Radius,
		rangeMode:    v.RangeMode,
		inside:       side,
		lastReport:   last,
		lastSentAt:   sentAt,
		lastVel:      vel,
	}
}

func (a *oracleAgent) drop(q model.QueryID) {
	if _, ok := a.monitors[q]; !ok {
		return
	}
	delete(a.monitors, q)
	for i, id := range a.order {
		if id == q {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

func (a *oracleAgent) tick(now model.Tick) {
	if len(a.monitors) == 0 {
		return
	}
	p := a.deps.Pos()
	a.observe(p, now)
	dt := a.deps.DT
	theta := a.cfg.ThetaInside
	var dropped []model.QueryID
	for _, q := range a.order {
		mon := a.monitors[q]
		qhat := geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.at)*dt)
		d := oracleDist(p, qhat)
		held := d <= mon.radius
		side := d <= mon.answerRadius
		switch {
		case mon.inside && !mon.rangeMode:
			in := mon.trackInside(now, dt, mon.qpos, mon.qvel, mon.at, mon.answerRadius)
			if drift := p.Dist(mon.trackAt(now, dt)); drift <= theta+trackEpsilon && (held || !in) {
				side = in
			} else {
				vel := a.fixVel
				a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
				}, Vel: vel})
				mon.lastReport, mon.lastSentAt, mon.lastVel = p, now, vel
			}
			if !side {
				mon.inside = false
			}
		case side && !mon.inside:
			vel := a.enterVel(mon.rangeMode)
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}, Vel: vel})
			mon.inside = true
			mon.lastReport, mon.lastSentAt, mon.lastVel = p, now, vel
		case !side && mon.inside:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			mon.inside = false
			mon.lastReport = p
			mon.lastSentAt = now
		}
		if !held {
			dropped = append(dropped, q)
		}
	}
	for _, q := range dropped {
		a.drop(q)
	}
}

// agentDiffRig drives the production agent and the map-based oracle with
// one stream of server messages and ticks, comparing uplinks, held
// monitors and member state after every event.
type agentDiffRig struct {
	t       *testing.T
	rng     *rand.Rand
	now     model.Tick
	pos     geo.Point
	vel     geo.Vector // the object's current leg
	agent   *ObjectAgent
	ora     *oracleAgent
	aSide   *recClient
	oSide   *recClient
	epoch   map[model.QueryID]uint32
	step    int
	maxHeld int
	drops   int
	members int // member rows compared, over all steps
}

func newAgentDiffRig(t *testing.T, seed int64) *agentDiffRig {
	r := &agentDiffRig{t: t, rng: rand.New(rand.NewSource(seed)), now: 1, pos: geo.Pt(100, 100),
		aSide: &recClient{}, oSide: &recClient{}, epoch: make(map[model.QueryID]uint32)}
	cfg := Config{HorizonTicks: 4, MinProbeRadius: 10, ThetaInside: 2}
	deps := AgentDeps{ID: 7, Now: func() model.Tick { return r.now }, Pos: func() geo.Point { return r.pos }, DT: 1}
	ad, od := deps, deps
	ad.Side, od.Side = r.aSide, r.oSide
	var err error
	if r.agent, err = NewObjectAgent(cfg, ad); err != nil {
		t.Fatal(err)
	}
	if r.ora, err = newOracleAgent(cfg, od); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *agentDiffRig) compare(what string) {
	r.t.Helper()
	r.step++
	if !reflect.DeepEqual(r.aSide.sent, r.oSide.sent) {
		r.t.Fatalf("step %d, tick %d, after %s: uplinks differ:\n table  %+v\n oracle %+v",
			r.step, r.now, what, r.aSide.sent, r.oSide.sent)
	}
	r.aSide.sent, r.oSide.sent = r.aSide.sent[:0], r.oSide.sent[:0]
	held := r.agent.held()
	if len(held) != len(r.ora.order) || r.agent.MonitorCount() != r.ora.MonitorCount() {
		r.t.Fatalf("step %d after %s: table holds %d monitors, oracle %d", r.step, what, len(held), len(r.ora.order))
	}
	// The member table names exactly the inside rows, ascending, each with
	// the oracle's report state; the pointer is nil when there are none.
	var members []memberState
	for i, q := range r.ora.order {
		// The row's track is compared by value: rows share records, so
		// comparing rows with == would compare pointers.
		om, m := r.ora.monitors[q], held[i]
		want := track{epoch: om.epoch, adv: line{om.qpos, om.qvel, om.at},
			answerRadius: om.answerRadius, radius: om.radius, rangeMode: om.rangeMode}
		if m.query != q || m.inside != om.inside || *m.tr != want {
			r.t.Fatalf("step %d after %s: slot %d\n table  query %d inside %v %+v\n oracle query %d inside %v %+v",
				r.step, what, i, m.query, m.inside, *m.tr, q, om.inside, want)
		}
		if om.inside {
			members = append(members, memberState{line{om.lastReport, om.lastVel, om.lastSentAt}})
			r.members++
		}
	}
	switch got := r.agent.members.rows(); {
	case members == nil && got != nil:
		r.t.Fatalf("step %d after %s: inside no answer circle, member table %+v not released", r.step, what, got)
	case members != nil && !slices.Equal(got, members):
		r.t.Fatalf("step %d after %s: member table\n table  %+v\n oracle %+v", r.step, what, got, members)
	}
	// Growth and release are bounded: never more than two growth steps of
	// slack, and nothing at all once the agent holds no monitor.
	if n, c := len(held), cap(held); c-n > 2*growStep(n) || (n == 0 && held != nil) {
		r.t.Fatalf("step %d after %s: %d monitors in a table of capacity %d", r.step, what, n, c)
	}
	if r.agent.holding.Load() != (len(held) > 0) {
		r.t.Fatalf("step %d after %s: holding flag %v with %d monitors held", r.step, what, r.agent.holding.Load(), len(held))
	}
	r.maxHeld = max(r.maxHeld, len(held))
}

func (r *agentDiffRig) deliver(msg protocol.Message) {
	r.agent.HandleServerMessage(msg)
	r.ora.handle(msg)
	r.compare(fmt.Sprintf("%+v", msg))
}

// install sends a full or refresh (re)install of a random query, centred
// so the object is inside the answer circle, in the annulus, or outside
// the region with comparable odds; one in eight is a stale rebroadcast.
func (r *agentDiffRig) install() {
	q := model.QueryID(1 + r.rng.Intn(24))
	r.epoch[q]++
	epoch := r.epoch[q]
	if r.rng.Intn(8) == 0 && epoch > 1 {
		epoch -= 1 + uint32(r.rng.Intn(2))
	}
	rk := float64(4 + r.rng.Intn(8))
	inst := protocol.MonitorInstall{
		Query: q, Epoch: epoch, Refresh: r.rng.Intn(3) > 0, RangeMode: r.rng.Intn(6) == 0,
		QueryPos:     geo.Pt(r.pos.X+float64(r.rng.Intn(41)-20), r.pos.Y+float64(r.rng.Intn(41)-20)/2),
		QueryVel:     geo.Vector{X: float64(r.rng.Intn(3) - 1), Y: float64(r.rng.Intn(3) - 1)},
		AnswerRadius: rk, Radius: rk + 8, At: r.now - model.Tick(r.rng.Intn(2)),
	}
	r.deliver(inst)
}

func (r *agentDiffRig) run(steps int) {
	for i := 0; i < steps; i++ {
		switch x := r.rng.Intn(100); {
		case x < 55:
			r.install()
		case x < 85:
			// Straight legs, so members also stay silent on their tracks.
			if r.rng.Intn(4) == 0 {
				r.vel = geo.Vec(float64(r.rng.Intn(7)-3), float64(r.rng.Intn(7)-3))
			}
			r.pos = r.pos.Add(r.vel)
			r.now++
			before := len(r.ora.order)
			r.agent.Tick(r.now)
			r.ora.tick(r.now)
			r.drops += before - len(r.ora.order)
			r.compare("Tick")
		case x < 93:
			q := model.QueryID(1 + r.rng.Intn(24))
			r.deliver(protocol.MonitorCancel{Query: q, Epoch: r.epoch[q] - uint32(r.rng.Intn(2))})
		default:
			r.deliver(protocol.ProbeRequest{Query: 1, Seq: uint32(i), At: r.now,
				Region: geo.Circle{Center: geo.Pt(100, 100), R: float64(r.rng.Intn(40))}})
		}
	}
}

// The dense table changes how monitors are stored, not what the agent
// does: under seeded streams of installs (new, refresh, stale),
// cancels, probes and ticks that drop several monitors at once, the
// uplink sequence, every held monitor and the member state of every
// monitor the object is inside equal the map-based agent's after every
// event, the table's slack stays within its bound, and the holding flag
// Tick reads without the lock says whether the table is empty.
func TestAgentTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newAgentDiffRig(t, seed)
			r.run(4000)
			if r.maxHeld < 8 || r.drops < 100 || r.members < 1000 {
				t.Fatalf("stream too tame: at most %d monitors held, %d dropped in ticks, %d member rows compared",
					r.maxHeld, r.drops, r.members)
			}
		})
	}
}
