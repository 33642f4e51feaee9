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
// storage is not: every oracle monitor carries lastReport and lastSentAt,
// inside the answer circle or not, where production keeps them in the
// member table only while inside is set. Both agents read the pair at two
// sites only — tick's `side && !rangeMode` arm, reachable only with inside
// set, and handleInstall's prev.lastReport/prev.lastSentAt, every use
// under prev.inside — so the oracle's copies on rows outside the answer
// circle are dead and compare() does not look at them. The install's Band
// is not stored at all: no agent ever read it.

type oracleAgent struct {
	cfg  Config
	deps AgentDeps

	monitors map[model.QueryID]*oracleAgentMonitor
	order    []model.QueryID // sorted, for deterministic send order
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
	frontier     float64

	lastReport geo.Point
	lastSentAt model.Tick
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
		a.handleInstall(v, 0)
	case protocol.InfluenceInstall:
		a.handleInstall(v.Install, v.Frontier)
	case protocol.MonitorCancel:
		if mon, ok := a.monitors[v.Query]; ok && v.Epoch >= mon.epoch {
			a.drop(v.Query)
		}
	}
}

func (a *oracleAgent) handleInstall(v protocol.MonitorInstall, frontier float64) {
	prev, had := a.monitors[v.Query]
	if had && v.Epoch < prev.epoch {
		return // stale rebroadcast
	}
	p := a.deps.Pos()
	d := p.Dist(v.QueryPos)
	now := a.deps.Now()
	if d > v.Radius {
		if v.Refresh && had && prev.inside {
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
		}
		a.drop(v.Query)
		return
	}
	side := d <= v.AnswerRadius
	reported := false
	if v.Refresh {
		affirm := side && had && prev.inside &&
			now-prev.lastSentAt >= model.Tick(a.cfg.HorizonTicks)
		switch {
		case side && (!(had && prev.inside) || affirm):
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			reported = true
		case !side && had && prev.inside:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			reported = true
		}
		if frontier > 0 && !v.RangeMode && side && had && prev.inside && !reported {
			dSrv := prev.lastReport.Dist(v.QueryPos)
			drift := p.Dist(prev.lastReport)
			if (d <= frontier) != (dSrv <= frontier) || drift > math.Abs(dSrv-frontier) {
				a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
				reported = true
			}
		}
	}
	last := p
	sentAt := now
	if v.Refresh && had && !reported {
		last = prev.lastReport
		sentAt = prev.lastSentAt
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
		frontier:     frontier,
		lastReport:   last,
		lastSentAt:   sentAt,
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
	dt := a.deps.DT
	theta := a.cfg.ThetaInside
	var dropped []model.QueryID
	for _, q := range a.order {
		mon := a.monitors[q]
		qhat := geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.at)*dt)
		d := p.Dist(qhat)
		if d > mon.radius {
			if mon.inside {
				a.deps.Side.Uplink(protocol.LeaveReport{MemberReport: protocol.MemberReport{
					Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
			}
			dropped = append(dropped, q)
			continue
		}
		side := d <= mon.answerRadius
		switch {
		case side && !mon.inside:
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			mon.inside = true
			mon.lastReport = p
			mon.lastSentAt = now
		case !side && mon.inside:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			mon.inside = false
			mon.lastReport = p
			mon.lastSentAt = now
		case side && !mon.rangeMode:
			drift := p.Dist(mon.lastReport)
			move := false
			if mon.frontier > 0 {
				dSrv := mon.lastReport.Dist(qhat)
				move = (d <= mon.frontier) != (dSrv <= mon.frontier) ||
					drift > math.Abs(dSrv-mon.frontier)
			} else {
				move = drift > theta
			}
			if move {
				a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
				mon.lastReport = p
				mon.lastSentAt = now
			}
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
		om, m := r.ora.monitors[q], held[i]
		want := agentMonitor{query: q, epoch: om.epoch, qpos: om.qpos, qvel: om.qvel, at: om.at,
			answerRadius: om.answerRadius, radius: om.radius, rangeMode: om.rangeMode, inside: om.inside,
			frontier: om.frontier}
		if m != want {
			r.t.Fatalf("step %d after %s: slot %d\n table  %+v\n oracle %+v", r.step, what, i, m, want)
		}
		if om.inside {
			members = append(members, memberState{query: q, lastSentAt: om.lastSentAt, lastReport: om.lastReport})
			r.members++
		}
	}
	switch got := r.agent.members; {
	case members == nil && got != nil:
		r.t.Fatalf("step %d after %s: inside no answer circle, member table %+v not released", r.step, what, *got)
	case members != nil && (got == nil || !slices.Equal(*got, members)):
		r.t.Fatalf("step %d after %s: member table\n table  %+v\n oracle %+v", r.step, what, got, members)
	}
	// Growth and release are bounded: never more than two growth steps of
	// slack, and nothing at all once the agent holds no monitor.
	if n, c := len(held), cap(held); c-n > 2*growStep(n) || (n == 0 && held != nil) {
		r.t.Fatalf("step %d after %s: %d monitors in a table of capacity %d", r.step, what, n, c)
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
	if r.rng.Intn(2) == 0 {
		r.deliver(protocol.InfluenceInstall{Install: inst,
			Frontier: float64(r.rng.Intn(int(rk) + 1)), Band: float64(r.rng.Intn(3))})
		return
	}
	r.deliver(inst)
}

func (r *agentDiffRig) run(steps int) {
	for i := 0; i < steps; i++ {
		switch x := r.rng.Intn(100); {
		case x < 55:
			r.install()
		case x < 85:
			r.pos = geo.Pt(r.pos.X+float64(r.rng.Intn(7)-3), r.pos.Y+float64(r.rng.Intn(7)-3))
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
// does: under seeded streams of installs (new, refresh, stale, influence),
// cancels, probes and ticks that drop several monitors at once, the
// uplink sequence, every held monitor and the member state of every
// monitor the object is inside equal the map-based agent's after every
// event, and the table's slack stays within its bound.
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
