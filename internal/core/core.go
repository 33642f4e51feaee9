// Package core implements the paper's primary contribution: distributed
// processing of moving k-nearest-neighbor queries on moving objects
// ("DKNN"). Instead of every object streaming its position to the server,
// the objects themselves take part in query processing:
//
//   - The server bootstraps each query with an expanding-ring probe,
//     computes the exact kNN from the replies, and installs a *monitor*
//     on every object inside the monitoring region — a circle of radius
//     R = r_b + δ around the query, where the advertised boundary r_b
//     encloses the k+m nearest objects (m = AnswerSlack buffer) and the
//     slack δ = (Vobj + Vqry)·H·Δt guarantees that no object outside R
//     at install time can become a nearest neighbor within the next H
//     ticks.
//
//   - Each aware object dead-reckons the query's advertised track locally
//     every tick and transmits only on events: crossing the advertised
//     boundary inward (EnterReport) or outward (ExitReport), leaving the
//     monitoring region while being a boundary member (LeaveReport), or —
//     while inside the boundary — drifting more than the in-circle
//     threshold θ from its last report (MoveReport, which keeps the
//     server's ranking of the buffered set fresh).
//
//   - The server maintains the answer as the k nearest among the buffered
//     members. It *refreshes* the monitor without probing (epoch+1,
//     objects self-report side changes relative to their previous state)
//     when the query track corrects, when the buffer half-drains or
//     overflows, or when the safety horizon H expires; it falls back to a
//     fresh probe only when fewer than k members remain known.
//
// With zero network latency, no loss, θ = 0, and query deviation
// threshold 0, the maintained answers are exact at every tick — a tested
// invariant. Nonzero thresholds trade bounded answer staleness for fewer
// messages; latency and loss degrade accuracy gracefully (both are
// measured experiments, not failure modes).
//
// The communication profile is the paper's headline property: uplink
// traffic is proportional to activity *near queries* — roughly
// Q·(k + m + boundary crossings) per tick — and essentially independent
// of the total object population N, whereas the centralized baselines pay
// Θ(N) uplinks per tick (CP) or Θ(N·speed/τ) (CI).
//
// The protocol state machines (Server, ObjectAgent, QueryAgent) are
// medium-agnostic: Method wires them into the simulation engine, and
// internal/nettcp runs the same machines over real TCP connections.
package core

import (
	"errors"
	"fmt"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
)

// errNoMaxProbeRadius reports a server built without a probe cap.
var errNoMaxProbeRadius = errors.New("core: MaxProbeRadius must be positive (use Config.WithWorldDefault)")

// Config carries the protocol knobs. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// HorizonTicks is H: the maximum number of ticks between monitor
	// reinstalls of one query. Larger H means fewer reinstalls but a
	// larger monitoring region (more aware objects, more event reports)
	// — the Fig 12 ablation sweeps it.
	HorizonTicks int
	// ThetaInside is θ: an object inside the answer boundary re-reports
	// after drifting this many meters from its last reported position.
	// 0 keeps the server's ranking exact; larger values trade accuracy
	// for fewer MoveReports (the Table 3 ablation).
	ThetaInside float64
	// QueryDeviation is the focal client's dead-reckoning threshold in
	// meters: it reports QueryMove when its true position deviates this
	// far from the track the server advertises. 0 reports every velocity
	// change.
	QueryDeviation float64
	// MinProbeRadius is the initial probe ring radius in meters. Probes
	// double until they cover at least k objects.
	MinProbeRadius float64
	// MaxProbeRadius caps ring expansion. Method defaults it to the
	// world diagonal (probe everything before giving up).
	MaxProbeRadius float64
	// AnswerSlack is m: the advertised answer boundary is sized to
	// enclose k + m objects rather than exactly k. The buffer absorbs
	// exits — the server refreshes (cheap, no probe) when it half
	// drains and falls back to a probe only when fewer than k objects
	// remain known. m also bounds the number of in-circle reporters, so
	// it is the knob between probe frequency and MoveReport volume.
	AnswerSlack int
	// ResyncTicks, when positive, forces a full probe (complete state
	// rebuild) at least this often per query. Zero disables it. Lossy
	// deployments use it to bound how long a client/server
	// desynchronization from a lost message can persist.
	ResyncTicks int
	// DeltaAnswers switches answer delivery to incremental updates
	// (positive/negative membership deltas) instead of full answers,
	// cutting downlink bytes roughly k-fold per change. A full answer
	// re-baselines the client after every (re)install; a lost delta
	// therefore desynchronizes the client's view only until the next
	// install.
	DeltaAnswers bool
	// Influence enables influential-neighbor-set safe regions (INSQ):
	// after each install the server derives a frontier F — the midpoint
	// between the k-th and (k+1)-th inside member — and advertises it on
	// an extended install. Each aware object then derives a private
	// movement threshold (its slack to F) and suppresses MoveReports
	// while its accumulated drift provably cannot have changed its side
	// of the frontier, instead of re-reporting every θ meters. The
	// server re-validates the frontier on every applied report and
	// refreshes the install the moment the influence set changes, so
	// answers stay membership-exact on a clean channel while in-circle
	// uplink traffic drops to frontier-zone activity. Off (the default)
	// keeps the classic velocity-worst-case path byte-identical on the
	// wire.
	Influence bool
}

// DefaultConfig returns the parameterization used by the headline
// experiments.
func DefaultConfig() Config {
	return Config{
		HorizonTicks:   20,
		ThetaInside:    0,
		QueryDeviation: 0,
		MinProbeRadius: 200,
		AnswerSlack:    10,
	}
}

// WithWorldDefault returns c with MaxProbeRadius defaulted to the world
// diagonal when unset.
func (c Config) WithWorldDefault(world geo.Rect) Config {
	if c.MaxProbeRadius == 0 {
		c.MaxProbeRadius = world.Min.Dist(world.Max)
	}
	return c
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.HorizonTicks <= 0:
		return fmt.Errorf("core: non-positive horizon %d", c.HorizonTicks)
	case c.ThetaInside < 0:
		return fmt.Errorf("core: negative theta %v", c.ThetaInside)
	case c.QueryDeviation < 0:
		return fmt.Errorf("core: negative query deviation %v", c.QueryDeviation)
	case c.MinProbeRadius <= 0:
		return fmt.Errorf("core: non-positive probe radius %v", c.MinProbeRadius)
	case c.AnswerSlack < 0:
		return fmt.Errorf("core: negative answer slack %d", c.AnswerSlack)
	case c.ResyncTicks < 0:
		return fmt.Errorf("core: negative resync period %d", c.ResyncTicks)
	}
	return nil
}

// Engine is the server side of the protocol as a driver sees it: the
// uplink surface the medium delivers to, the periodic evaluation, the
// intra-tick rounds that settle probe conversations, and the cumulative
// processing time. Server, the sharded server (internal/shard) and the
// federation (internal/cluster: one Member, or the in-process Cluster of
// them) all are one — the clients cannot tell which they talk to, and
// neither the simulation method below nor the deployed tick loop can.
// Tick and Finalize ingest whatever the engine queued since the last
// call, so a driver never needs to know the ingest discipline.
type Engine interface {
	transport.ServerHandler
	Tick(now model.Tick)
	// Finalize reports whether anything moved; the driver delivers what
	// was sent and calls again while it does.
	Finalize(now model.Tick) bool
	BusyTime() time.Duration
}

// BuildEngine makes a method's server side. cfg carries the world
// defaults and deps is filled from the simulation environment — the
// unrestricted radio as Side, the clock, the speed bounds, the latency
// bound and the trace sink; env is there for engines that need more of it
// (the federation's partition and per-node radio surfaces).
type BuildEngine func(cfg Config, deps ServerDeps, env *sim.Env) (Engine, error)

// Method is the DKNN strategy plugged into the simulation engine, for
// every server shape: it builds one Engine, one ObjectAgent per data
// object, and one QueryAgent per query, all wired to the engine's metered
// network.
type Method struct {
	name    string
	cfg     Config
	latency int // server-side latency on top of the radio's, in ticks
	build   BuildEngine
	env     *sim.Env
	engine  Engine
	agents  []*ObjectAgent
	qcs     []*QueryAgent
}

var _ sim.Method = (*Method)(nil)

// New returns a DKNN method with the given protocol configuration, served
// by a single Server.
func New(cfg Config) (*Method, error) {
	return NewMethod("dknn", cfg, 0, func(cfg Config, deps ServerDeps, _ *sim.Env) (Engine, error) {
		return NewServer(cfg, deps)
	})
}

// NewMethod returns the DKNN method over the engine build makes.
// extraLatency is what an exchange pays inside the server side on top of
// the radio latency (a federation's link latency); server and clients
// size their reply deadlines from the total.
func NewMethod(name string, cfg Config, extraLatency int, build BuildEngine) (*Method, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Method{name: name, cfg: cfg, latency: extraLatency, build: build}, nil
}

// Name implements sim.Method.
func (m *Method) Name() string { return m.name }

// Setup implements sim.Method. Every agent is built by the restart hooks,
// so a restarted client is wired exactly like a first-time one whatever
// the engine.
func (m *Method) Setup(env *sim.Env) error {
	m.env = env
	m.cfg = m.cfg.WithWorldDefault(env.World)
	eng, err := m.build(m.cfg, ServerDeps{
		Side:           env.Net.ServerSide(),
		Now:            env.Net.Now,
		DT:             env.DT,
		MaxObjectSpeed: env.MaxObjectSpeed,
		MaxQuerySpeed:  env.MaxQuerySpeed,
		LatencyTicks:   env.LatencyTicks + m.latency,
		Trace:          env.Trace,
	}, env)
	if err != nil {
		return err
	}
	m.engine = eng
	env.Net.AttachServer(eng)

	m.agents = make([]*ObjectAgent, len(env.Objects))
	for i := range m.agents {
		if err := m.RestartObject(model.ObjectID(i + 1)); err != nil {
			return err
		}
	}
	m.qcs = make([]*QueryAgent, len(env.Queries))
	for i := range m.qcs {
		if err := m.RestartQuery(model.QueryID(i + 1)); err != nil {
			return err
		}
	}
	return nil
}

// agentDeps wires one client (object or focal) to the environment.
func (m *Method) agentDeps(id model.ObjectID, pos func() geo.Point) AgentDeps {
	return AgentDeps{
		ID:           id,
		Side:         m.env.Net.ClientSide(id),
		Now:          m.env.Net.Now,
		Pos:          pos,
		DT:           m.env.DT,
		LatencyTicks: m.env.LatencyTicks + m.latency,
		Trace:        m.env.Trace,
	}
}

// RestartObject simulates a crash/restart of one data object's client
// process: the agent is replaced with a fresh one holding no monitor
// state, exactly as a rebooted device would come back. Installed
// monitors it held are gone; the protocol re-recruits it through the
// normal install/refresh cycle.
func (m *Method) RestartObject(id model.ObjectID) error {
	idx := int(id) - 1
	if idx < 0 || idx >= len(m.agents) {
		return fmt.Errorf("core: restart of unknown object %d", id)
	}
	env := m.env
	agent, err := NewObjectAgent(m.cfg, m.agentDeps(id, func() geo.Point { return env.Objects[idx].Pos }))
	if err != nil {
		return err
	}
	m.agents[idx] = agent
	env.Net.AttachClient(id, agent)
	return nil
}

// RestartQuery simulates a crash/restart of a query's focal client: the
// agent restarts with no registration and no answer state. Its next Tick
// re-registers; the server treats a duplicate registration from the
// focal client as a restart and re-baselines it with a full
// AnswerUpdate.
func (m *Method) RestartQuery(q model.QueryID) error {
	qi := int(q) - 1
	if qi < 0 || qi >= len(m.qcs) {
		return fmt.Errorf("core: restart of unknown query %d", q)
	}
	env := m.env
	addr := env.Queries[qi].State.ID
	qa, err := NewQueryAgent(m.cfg, env.Queries[qi].Spec, QueryAgentDeps{
		AgentDeps: m.agentDeps(addr, func() geo.Point { return env.Queries[qi].State.Pos }),
		Vel:       func() geo.Vector { return env.Queries[qi].State.Vel },
	})
	if err != nil {
		return err
	}
	m.qcs[qi] = qa
	env.Net.AttachClient(addr, qa)
	return nil
}

// ClientTick implements sim.Method.
func (m *Method) ClientTick(now model.Tick) {
	for _, qc := range m.qcs {
		qc.Tick(now)
	}
	for _, a := range m.agents {
		a.Tick(now)
	}
}

// ServerTick implements sim.Method.
func (m *Method) ServerTick(now model.Tick) { m.engine.Tick(now) }

// Finalize implements sim.Method.
func (m *Method) Finalize(now model.Tick) bool { return m.engine.Finalize(now) }

// Answer implements sim.Method: the answer as currently visible at the
// query's focal client (what the user would see).
func (m *Method) Answer(q model.QueryID) model.Answer {
	qi := int(q) - 1
	if qi < 0 || qi >= len(m.qcs) {
		return model.Answer{Query: q}
	}
	return m.qcs[qi].Answer()
}

// ServerTime implements sim.Method: the engine's critical path.
func (m *Method) ServerTime() time.Duration { return m.engine.BusyTime() }

// Engine returns the server side Setup built, nil before Setup (tests and
// harnesses inspect server-side state through it).
func (m *Method) Engine() Engine { return m.engine }

// Agents returns the object agents, indexed by object id − 1.
func (m *Method) Agents() []*ObjectAgent { return m.agents }
