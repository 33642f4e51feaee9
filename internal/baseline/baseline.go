// Package baseline implements the centralized comparison methods the
// distributed protocol is evaluated against:
//
//   - CP (centralized periodic): every object uplinks its position every
//     tick; the server keeps a uniform grid index and recomputes every
//     query per tick with best-first kNN. Exact answers, Θ(N) uplinks per
//     tick regardless of the query load.
//
//   - CI (centralized incremental, position-drift threshold τ): an object
//     uplinks only after moving more than τ meters from its last reported
//     position; the server recomputes from the (τ-stale) index. Uplink
//     cost scales with N·speed/τ; answer position error is bounded by τ.
//
//   - CB (centralized predictive dead reckoning, threshold τ): an object
//     uplinks position+velocity and reports again only when its true
//     position deviates more than τ from the advertised straight-line
//     track; the server extrapolates every track each tick before
//     evaluating queries. Far fewer messages than CI for straight-moving
//     populations, at Θ(N) server work per tick — the classic
//     messages-vs-server-CPU tradeoff from the moving-object-database
//     literature.
//
// All index their reports in the same uniform grid (internal/grid), run
// on the same transport, are driven by the same engine, and are audited
// by the same ground truth as the distributed method, so every reported
// difference is attributable to the protocol.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
)

// Mode selects the object reporting policy.
type Mode uint8

// Reporting policies.
const (
	// ModePeriodic: report every tick (CP).
	ModePeriodic Mode = iota
	// ModeDrift: report after moving more than τ from the last reported
	// position (CI).
	ModeDrift
	// ModePredict: report position+velocity when deviating more than τ
	// from the advertised straight-line track; the server extrapolates
	// (CB).
	ModePredict
)

// trackEpsilon absorbs float-summation noise between iterated per-tick
// motion and one-shot track extrapolation (see internal/core for the
// same constant and rationale).
const trackEpsilon = 1e-6

// Config selects the reporting policy.
type Config struct {
	Mode Mode
	// Threshold is the drift/deviation bound τ in meters (ModeDrift and
	// ModePredict).
	Threshold float64
	// QueryThreshold is the focal client's reporting threshold; the
	// query position is cheap to track precisely, so it defaults to 0
	// (report every tick it moved).
	QueryThreshold float64
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Mode != ModePeriodic && c.Threshold <= 0 {
		return fmt.Errorf("baseline: threshold mode requires positive threshold, got %v", c.Threshold)
	}
	if c.Threshold < 0 || c.QueryThreshold < 0 {
		return fmt.Errorf("baseline: negative threshold")
	}
	return nil
}

// Method is a centralized strategy plugged into the simulation engine.
type Method struct {
	cfg  Config
	name string
	env  *sim.Env

	server *centralServer
	agents []reporterAgent
	qcs    []centralQueryClient

	serverTime time.Duration
}

var _ sim.Method = (*Method)(nil)

// NewCP returns the centralized-periodic baseline.
func NewCP() *Method {
	return &Method{cfg: Config{Mode: ModePeriodic}, name: "cp"}
}

// NewCI returns the centralized-incremental baseline with drift threshold
// tau (meters).
func NewCI(tau float64) (*Method, error) {
	cfg := Config{Mode: ModeDrift, Threshold: tau}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Method{cfg: cfg, name: fmt.Sprintf("ci(τ=%g)", tau)}, nil
}

// NewCB returns the centralized predictive dead-reckoning baseline with
// track-deviation threshold tau (meters).
func NewCB(tau float64) (*Method, error) {
	cfg := Config{Mode: ModePredict, Threshold: tau}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Method{cfg: cfg, name: fmt.Sprintf("cb(τ=%g)", tau)}, nil
}

// Name implements sim.Method.
func (m *Method) Name() string { return m.name }

// Setup implements sim.Method.
func (m *Method) Setup(env *sim.Env) error {
	m.env = env
	m.server = newCentralServer(m, env.Net.ServerSide())
	env.Net.AttachServer(m.server)

	m.agents = make([]reporterAgent, len(env.Objects))
	for i := range m.agents {
		a := &m.agents[i]
		a.m = m
		a.id = model.ObjectID(i + 1)
		a.side = env.Net.ClientSide(a.id)
		env.Net.AttachClient(a.id, a)
	}
	m.qcs = make([]centralQueryClient, len(env.Queries))
	for i := range m.qcs {
		qc := &m.qcs[i]
		qc.m = m
		qc.idx = i
		qc.side = env.Net.ClientSide(env.Queries[i].State.ID)
		env.Net.AttachClient(env.Queries[i].State.ID, qc)
	}
	return nil
}

// ClientTick implements sim.Method.
func (m *Method) ClientTick(now model.Tick) {
	for i := range m.qcs {
		m.qcs[i].tick(now)
	}
	for i := range m.agents {
		m.agents[i].tick(now)
	}
}

// ServerTick implements sim.Method.
func (m *Method) ServerTick(now model.Tick) {
	defer m.track(obs.Now())
	m.server.tick(now)
}

// Finalize implements sim.Method: centralized processing completes within
// ServerTick.
func (m *Method) Finalize(model.Tick) bool { return false }

// Answer implements sim.Method: the answer as visible at the query's
// focal client.
func (m *Method) Answer(q model.QueryID) model.Answer {
	qi := int(q) - 1
	if qi < 0 || qi >= len(m.qcs) {
		return model.Answer{Query: q}
	}
	return m.qcs[qi].answer
}

// ServerTime implements sim.Method.
func (m *Method) ServerTime() time.Duration { return m.serverTime }

func (m *Method) track(start obs.Stamp) { m.serverTime += start.Elapsed() }

// ---------------------------------------------------------------------------
// Client side

// reporterAgent implements the object-side reporting policy.
type reporterAgent struct {
	m    *Method
	id   model.ObjectID
	side transport.ClientSide

	reported bool
	lastPos  geo.Point
	lastVel  geo.Vector
	lastAt   model.Tick
}

func (a *reporterAgent) pos() geo.Point { return a.m.env.Objects[int(a.id)-1].Pos }

func (a *reporterAgent) tick(now model.Tick) {
	st := a.m.env.Objects[int(a.id)-1]
	var send bool
	switch {
	case a.m.cfg.Mode == ModePeriodic || !a.reported:
		send = true
	case a.m.cfg.Mode == ModeDrift:
		send = st.Pos.Dist(a.lastPos) > a.m.cfg.Threshold
	default: // ModePredict
		expect := geo.DeadReckon(a.lastPos, a.lastVel, float64(now-a.lastAt)*a.m.env.DT)
		send = st.Pos.Dist(expect) > a.m.cfg.Threshold+trackEpsilon
	}
	if !send {
		return
	}
	a.side.Uplink(protocol.LocationReport{Object: a.id, Pos: st.Pos, Vel: st.Vel, At: now})
	a.reported = true
	a.lastPos, a.lastVel, a.lastAt = st.Pos, st.Vel, now
}

// HandleServerMessage implements transport.ClientHandler; centralized
// objects receive nothing.
func (a *reporterAgent) HandleServerMessage(protocol.Message) {}

// centralQueryClient registers its query and streams its focal position.
type centralQueryClient struct {
	m    *Method
	idx  int
	side transport.ClientSide

	registered bool
	lastPos    geo.Point

	answer model.Answer
}

func (qc *centralQueryClient) tick(now model.Tick) {
	rt := &qc.m.env.Queries[qc.idx]
	st := rt.State
	if !qc.registered {
		qc.side.Uplink(protocol.QueryRegister{
			Query: rt.Spec.ID, K: uint32(rt.Spec.K), Range: rt.Spec.Range,
			Pos: st.Pos, Vel: st.Vel, At: now,
		})
		qc.registered = true
		qc.lastPos = st.Pos
		return
	}
	// The focal position is precious: stream it every tick under the
	// periodic policy, else when it moved beyond the query threshold.
	if qc.m.cfg.Mode == ModePeriodic || st.Pos.Dist(qc.lastPos) > qc.m.cfg.QueryThreshold {
		qc.side.Uplink(protocol.QueryMove{Query: rt.Spec.ID, Pos: st.Pos, Vel: st.Vel, At: now})
		qc.lastPos = st.Pos
	}
}

// HandleServerMessage implements transport.ClientHandler.
func (qc *centralQueryClient) HandleServerMessage(msg protocol.Message) {
	if v, ok := msg.(protocol.AnswerUpdate); ok {
		qc.answer = model.Answer{Query: v.Query, At: v.At, Neighbors: v.Neighbors}
	}
}

// ---------------------------------------------------------------------------
// Server side

type centralQuery struct {
	spec model.QuerySpec
	addr model.ObjectID
	qpos geo.Point
	qvel geo.Vector
	qat  model.Tick
	sent map[model.ObjectID]bool
}

// track is the last reported kinematic state of one object, kept by the
// predictive server so it can extrapolate between reports.
type track struct {
	pos geo.Point
	vel geo.Vector
	at  model.Tick
}

// centralServer indexes location reports in a uniform grid and recomputes
// every query each tick. In ModePredict it additionally dead-reckons all
// known tracks into the index before evaluating.
type centralServer struct {
	m       *Method
	side    transport.ServerSide
	index   *grid.Grid
	tracks  map[model.ObjectID]track
	queries map[model.QueryID]*centralQuery
	order   []model.QueryID
	// scratch is the reusable result buffer for index searches: the
	// per-tick evaluation copies what it sends, so the buffer can be
	// recycled across queries and ticks.
	scratch []model.Neighbor
}

func newCentralServer(m *Method, side transport.ServerSide) *centralServer {
	cols, rows := m.env.Geometry.Dims()
	return &centralServer{
		m:       m,
		side:    side,
		index:   grid.New(m.env.World, cols, rows),
		tracks:  make(map[model.ObjectID]track),
		queries: make(map[model.QueryID]*centralQuery),
	}
}

// HandleUplink implements transport.ServerHandler.
func (s *centralServer) HandleUplink(from model.ObjectID, msg protocol.Message) {
	defer s.m.track(obs.Now())
	switch v := msg.(type) {
	case protocol.LocationReport:
		if _, ok := s.index.Position(v.Object); ok {
			_ = s.index.Update(v.Object, v.Pos)
		} else {
			_ = s.index.Insert(v.Object, v.Pos)
		}
		if s.m.cfg.Mode == ModePredict {
			s.tracks[v.Object] = track{pos: v.Pos, vel: v.Vel, at: v.At}
		}
	case protocol.QueryRegister:
		if _, exists := s.queries[v.Query]; exists {
			return
		}
		s.queries[v.Query] = &centralQuery{
			spec: model.QuerySpec{ID: v.Query, K: int(v.K), Range: v.Range, Pos: v.Pos, Vel: v.Vel},
			addr: from,
			qpos: v.Pos, qvel: v.Vel, qat: v.At,
			sent: make(map[model.ObjectID]bool),
		}
		s.order = append(s.order, v.Query)
		sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	case protocol.QueryMove:
		if q, ok := s.queries[v.Query]; ok {
			q.qpos, q.qvel, q.qat = v.Pos, v.Vel, v.At
		}
	case protocol.QueryDeregister:
		if _, ok := s.queries[v.Query]; ok {
			delete(s.queries, v.Query)
			for i, id := range s.order {
				if id == v.Query {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
}

// HandleClientGone implements transport.DisconnectHandler: vanished
// objects leave the index; a vanished focal client takes its query down.
func (s *centralServer) HandleClientGone(id model.ObjectID) {
	defer s.m.track(obs.Now())
	if _, ok := s.index.Position(id); ok {
		_ = s.index.Remove(id)
	}
	delete(s.tracks, id)
	for qid, q := range s.queries {
		if q.addr == id {
			delete(s.queries, qid)
			for i, o := range s.order {
				if o == qid {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
}

// tick reevaluates every query against the current index and downlinks
// answers whose membership changed. The predictive server first
// extrapolates every known track into the index — Θ(N) work per tick,
// the price of the message savings.
func (s *centralServer) tick(now model.Tick) {
	dt := s.m.env.DT
	if s.m.cfg.Mode == ModePredict {
		for id, tr := range s.tracks {
			p := s.m.env.World.Clamp(geo.DeadReckon(tr.pos, tr.vel, float64(now-tr.at)*dt))
			_ = s.index.Update(id, p)
		}
	}
	for _, qid := range s.order {
		q := s.queries[qid]
		qhat := geo.DeadReckon(q.qpos, q.qvel, float64(now-q.qat)*dt)
		var ns []model.Neighbor
		if q.spec.IsRange() {
			ns = s.index.Range(geo.Circle{Center: qhat, R: q.spec.Range}, nil, s.scratch[:0])
		} else {
			ns = s.index.KNN(qhat, q.spec.K, nil, s.scratch[:0])
		}
		if cap(ns) > cap(s.scratch) {
			s.scratch = ns
		}
		changed := len(ns) != len(q.sent)
		if !changed {
			for _, n := range ns {
				if !q.sent[n.ID] {
					changed = true
					break
				}
			}
		}
		if !changed {
			continue
		}
		clear(q.sent)
		for _, n := range ns {
			q.sent[n.ID] = true
		}
		out := make([]model.Neighbor, len(ns))
		copy(out, ns)
		s.side.Downlink(q.addr, protocol.AnswerUpdate{Query: qid, At: now, Neighbors: out})
	}
}
