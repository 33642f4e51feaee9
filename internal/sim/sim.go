// Package sim is the slotted-time simulation engine the experiments run
// on. One tick is one evaluation interval of the continuous queries. Each
// tick the engine:
//
//  1. advances every object and query focal point with its mobility model
//     and refreshes the ground-truth index;
//  2. runs the method's client-side logic (object agents decide locally
//     whether to transmit) and flushes the network;
//  3. runs the method's server-side periodic logic and flushes again;
//  4. lets the method finalize multi-round exchanges (probe → install)
//     with a bounded number of additional flushes;
//  5. audits the method's maintained answers against brute-force ground
//     truth — fanning the queries out over runtime.GOMAXPROCS goroutines
//     with deterministic chunk-ordered merging — and samples the per-tick
//     metric series. Motion (step 1) stays serial: mobility models draw
//     from a shared per-model RNG stream, so parallel stepping would make
//     trajectories schedule-dependent.
//
// The engine is method-agnostic: the distributed protocol (internal/core)
// and the centralized baselines (internal/baseline) implement Method and
// are measured under identical trajectories, identical network semantics,
// and an identical auditor.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/mobility"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/par"
	"dmknn/internal/simnet"
)

// Method is one query-processing strategy under evaluation.
type Method interface {
	// Name identifies the method in experiment output.
	Name() string
	// Setup wires the method into the environment: attach server and
	// client handlers to env.Net and capture references. Called once,
	// before the first tick.
	Setup(env *Env) error
	// ClientTick runs the per-tick local logic of every client (object
	// agents and query focal clients). Sends become visible after the
	// engine's flush.
	ClientTick(now model.Tick)
	// ServerTick runs the server's periodic work, after this tick's
	// client uplinks have been delivered.
	ServerTick(now model.Tick)
	// Finalize completes multi-round exchanges begun this tick (e.g.
	// computing an answer from probe replies and broadcasting the monitor
	// install). The engine flushes after each call and calls again while
	// it returns true.
	Finalize(now model.Tick) bool
	// Answer returns the method's current maintained answer for q, as the
	// system would report it to the user right now.
	Answer(q model.QueryID) model.Answer
	// ServerTime returns the cumulative wall-clock time spent in
	// server-side processing (handlers plus periodic work).
	ServerTime() time.Duration
}

// ExtraReporter is optionally implemented by a Method to expose
// method-specific cumulative counters (e.g. a federation's inter-node
// link traffic and handoff counts) beyond what the shared network
// meters. The engine snapshots the counters at the warmup boundary and
// reports the measured-phase increase in Result.Extra.
type ExtraReporter interface {
	ExtraMetrics() map[string]float64
}

// QueryRuntime couples a query spec with the live kinematic state of its
// focal client.
type QueryRuntime struct {
	Spec  model.QuerySpec
	State model.ObjectState // State.ID is the focal client's network address
}

// Env is the environment a Method operates in. The engine owns and updates
// Objects and Queries in place each tick; methods keep the slices and read
// current state through them (this models each client knowing its own
// position locally — reading a position costs nothing, transmitting it is
// what the network meters).
type Env struct {
	Net      *simnet.Network
	Geometry grid.Geometry
	World    geo.Rect
	// DT is the duration of one tick in seconds of simulated time.
	DT float64
	// LatencyTicks is the network's one-way delivery delay, which the
	// server knows as a deployment parameter (it schedules probe-reply
	// deadlines from it).
	LatencyTicks int
	// Speed bounds, used by the distributed protocol to size safe slack.
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	Objects        []model.ObjectState
	Queries        []QueryRuntime
	// Trace, when non-nil, is the event sink methods wire into their
	// protocol state machines (and the network, via Net.SetTrace). The
	// engine composes it from Config.Trace plus its own histogram
	// observer when Config.Observe is set.
	Trace obs.Sink
}

// ObjectByID returns the live state of a data object. Object ids are
// 1..len(Objects).
func (e *Env) ObjectByID(id model.ObjectID) *model.ObjectState {
	return &e.Objects[int(id)-1]
}

// Config parameterizes one simulation run.
type Config struct {
	World      geo.Rect
	Cols, Rows int
	// NumObjects data objects move per ObjectModel; NumQueries focal
	// points move per QueryModel.
	NumObjects int
	NumQueries int
	K          int
	// QueryRange, when positive, makes every query a fixed-radius range
	// monitor instead of a kNN query.
	QueryRange float64
	// DT is seconds of simulated time per tick.
	DT float64
	// Speed bounds must match (or exceed) what the mobility models
	// produce; the distributed protocol's safety depends on them.
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	// Ticks to simulate after Warmup ticks (warmup traffic and accuracy
	// are excluded from the reported series).
	Ticks  int
	Warmup int
	// Network behavior.
	LatencyTicks  int
	UplinkLoss    float64
	DownlinkLoss  float64
	BroadcastLoss float64
	// Faults is the optional fault-injection matrix (burst loss, jitter,
	// duplication); the zero value leaves the network's behavior — and
	// its seeded loss stream — exactly as without it.
	Faults simnet.FaultConfig
	Seed   int64
	// ObjectModel and QueryModel construct the mobility models. They
	// receive the seed so trajectories are reproducible.
	ObjectModel func(seed int64) (mobility.Model, error)
	QueryModel  func(seed int64) (mobility.Model, error)
	// DisableAudit skips ground-truth maintenance and answer auditing
	// (used by pure-throughput benchmarks).
	DisableAudit bool
	// Trace, when non-nil, receives every protocol lifecycle event the
	// method and network emit (see internal/obs). Chaos tests arm a
	// flight recorder here. Tracing must not change behavior: the event
	// stream is observation-only and draws no randomness.
	Trace obs.Sink
	// Observe enables the observability histograms in Result (answer
	// staleness, uplink inter-report gaps, per-tick server latency).
	// Off by default: the extra per-tick answer sampling is not free,
	// and golden experiments must not pay for it.
	Observe bool
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.World.Width() <= 0 || c.World.Height() <= 0:
		return fmt.Errorf("sim: degenerate world %v", c.World)
	case c.Cols <= 0 || c.Rows <= 0:
		return fmt.Errorf("sim: bad grid %dx%d", c.Cols, c.Rows)
	case c.NumObjects <= 0:
		return fmt.Errorf("sim: no objects")
	case c.NumQueries < 0:
		return fmt.Errorf("sim: negative query count")
	case c.K <= 0 && c.QueryRange <= 0:
		return fmt.Errorf("sim: non-positive k and no query range")
	case c.QueryRange < 0:
		return fmt.Errorf("sim: negative query range")
	case c.DT <= 0:
		return fmt.Errorf("sim: non-positive dt")
	case c.Ticks <= 0:
		return fmt.Errorf("sim: non-positive ticks")
	case c.Warmup < 0:
		return fmt.Errorf("sim: negative warmup")
	case c.ObjectModel == nil || c.QueryModel == nil:
		return fmt.Errorf("sim: mobility model constructors required")
	}
	return nil
}

// Result is the measured outcome of one run.
type Result struct {
	Method string
	Config Config
	// Per-tick series, excluding warmup.
	Uplink    metrics.Series
	Downlink  metrics.Series
	Broadcast metrics.Series
	ServerUS  metrics.Series // server processing, microseconds per tick
	// Audit of every (query, tick) answer after warmup.
	Audit metrics.Audit
	// Traffic accumulated after warmup.
	Traffic metrics.Counters
	// Extra holds the measured-phase increase of the method's
	// ExtraReporter counters; nil when the method reports none.
	Extra map[string]float64
	// Observability histograms, nil unless Config.Observe was set.
	// Staleness samples the age of every query's client-visible answer
	// (now − answer tick) once per measured tick; ReportGaps samples the
	// gap in ticks between consecutive uplink reports of one object;
	// ServerLatencyUS samples the server processing time per measured
	// tick in microseconds.
	Staleness       *metrics.Histogram
	ReportGaps      *metrics.Histogram
	ServerLatencyUS *metrics.Histogram
}

// UplinkPerTick returns the headline metric: mean uplink messages per
// tick after warmup.
func (r *Result) UplinkPerTick() float64 { return r.Uplink.Mean() }

// DownlinkPerTick returns mean downlink+broadcast transmissions per tick.
func (r *Result) DownlinkPerTick() float64 {
	return r.Downlink.Mean() + r.Broadcast.Mean()
}

// maxFinalizeRounds bounds the probe/install rounds a method may take in
// one tick before the engine declares a protocol bug. The batched ingest
// pipeline (internal/shard) defers each flush generation's responses to
// the next Finalize round, stretching a probe conversation that the
// synchronous server completes in k rounds across up to 2k. The DKNN
// server sends a tick's answers from Finalize, so the reports an install
// provokes are answered one round later: one answer round more. The bound
// leaves headroom above the deepest cascade the property tests exercise.
const maxFinalizeRounds = 16

// Engine drives one (config, method) run.
type Engine struct {
	cfg    Config
	method Method
	env    *Env
	net    *simnet.Network
	objMdl mobility.Model
	qryMdl mobility.Model
	truth  *grid.Grid
	now    model.Tick
	// qScratch is the reusable buffer the motion step stages query focal
	// states in (the query mobility model steps them as one population).
	qScratch []model.ObjectState
	// auditBufs holds one reusable ground-truth neighbor buffer per
	// audit worker, and chunkAudits one accumulator per query chunk;
	// both persist across ticks so the steady-state audit allocates no
	// neighbor lists.
	auditBufs   [][]model.Neighbor
	chunkAudits []metrics.Audit

	// Observability collectors (Config.Observe). The gap observer is fed
	// from the trace event stream, which a sharded server's shards may
	// emit into from parallel goroutines, so it carries its own lock; all
	// histogram samples are integer-valued ticks, keeping the accumulated
	// sums independent of arrival order.
	stale     *metrics.Histogram
	gaps      *metrics.Histogram
	servLatUS *metrics.Histogram
	gapMu     sync.Mutex
	gapLast   map[model.ObjectID]model.Tick
	observing bool
}

// NewEngine builds the environment for cfg and calls method.Setup.
func NewEngine(cfg Config, method Method) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	objMdl, err := cfg.ObjectModel(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("sim: object model: %w", err)
	}
	qryMdl, err := cfg.QueryModel(cfg.Seed + 0x9E3779B9)
	if err != nil {
		return nil, fmt.Errorf("sim: query model: %w", err)
	}
	geom := grid.NewGeometry(cfg.World, cfg.Cols, cfg.Rows)
	net := simnet.New(simnet.Config{
		Geometry:      geom,
		LatencyTicks:  cfg.LatencyTicks,
		UplinkLoss:    cfg.UplinkLoss,
		DownlinkLoss:  cfg.DownlinkLoss,
		BroadcastLoss: cfg.BroadcastLoss,
		Faults:        cfg.Faults,
		Seed:          cfg.Seed + 0x51ED2701,
	})

	objects := objMdl.Init(cfg.NumObjects)
	qStates := qryMdl.Init(cfg.NumQueries)
	queries := make([]QueryRuntime, cfg.NumQueries)
	for i := range queries {
		addr := model.ObjectID(cfg.NumObjects + 1 + i)
		qStates[i].ID = addr
		queries[i] = QueryRuntime{
			Spec: model.QuerySpec{
				ID:    model.QueryID(i + 1),
				K:     cfg.K,
				Range: cfg.QueryRange,
				Pos:   qStates[i].Pos,
				Vel:   qStates[i].Vel,
			},
			State: qStates[i],
		}
	}

	env := &Env{
		Net:            net,
		Geometry:       geom,
		World:          cfg.World,
		DT:             cfg.DT,
		LatencyTicks:   cfg.LatencyTicks,
		MaxObjectSpeed: cfg.MaxObjectSpeed,
		MaxQuerySpeed:  cfg.MaxQuerySpeed,
		Objects:        objects,
		Queries:        queries,
	}

	e := &Engine{
		cfg:    cfg,
		method: method,
		env:    env,
		net:    net,
		objMdl: objMdl,
		qryMdl: qryMdl,
	}

	// The network resolves broadcast audiences from live positions of
	// both data objects and query focal clients.
	net.SetPositionOracle(func(id model.ObjectID) (geo.Point, bool) {
		if n := int(id); n >= 1 && n <= len(env.Objects) {
			return env.Objects[n-1].Pos, true
		}
		qi := int(id) - len(env.Objects) - 1
		if qi >= 0 && qi < len(env.Queries) {
			return env.Queries[qi].State.Pos, true
		}
		return geo.Point{}, false
	})

	if !cfg.DisableAudit {
		e.truth = grid.New(cfg.World, cfg.Cols, cfg.Rows)
		for _, s := range objects {
			if err := e.truth.Insert(s.ID, s.Pos); err != nil {
				return nil, fmt.Errorf("sim: truth index: %w", err)
			}
		}
	}

	// Compose the trace sink the method sees: the caller's sink (flight
	// recorder, CLI trace) plus the engine's own histogram observer when
	// Observe is on.
	sink := cfg.Trace
	if cfg.Observe {
		e.stale = metrics.NewHistogram(metrics.TickBuckets()...)
		e.gaps = metrics.NewHistogram(metrics.TickBuckets()...)
		e.servLatUS = metrics.NewHistogram(metrics.LatencyBuckets()...)
		e.gapLast = make(map[model.ObjectID]model.Tick)
		sink = obs.Tee(sink, obs.SinkFunc(e.observeEvent))
	}
	env.Trace = sink
	net.SetTrace(sink)

	if err := method.Setup(env); err != nil {
		return nil, fmt.Errorf("sim: %s setup: %w", method.Name(), err)
	}
	return e, nil
}

// Env exposes the engine's environment (tests and harnesses use it).
func (e *Engine) Env() *Env { return e.env }

// Run simulates warmup + measured ticks and returns the result.
func (e *Engine) Run() (*Result, error) {
	res := &Result{Method: e.method.Name(), Config: e.cfg}
	total := e.cfg.Warmup + e.cfg.Ticks
	var (
		baseTraffic metrics.Counters
		baseExtra   map[string]float64
	)
	extra, _ := e.method.(ExtraReporter)
	for tick := 0; tick < total; tick++ {
		if tick == e.cfg.Warmup {
			baseTraffic = e.net.Counters().Snapshot()
			if extra != nil {
				// Deep-copy the snapshot: the ExtraReporter contract does
				// not promise a fresh map, and a method handing out its
				// live counters (or a mid-run SetFaults swap mutating
				// them) must not move the warmup baseline under us.
				baseExtra = make(map[string]float64)
				for k, v := range extra.ExtraMetrics() {
					baseExtra[k] = v
				}
			}
			if e.cfg.Observe {
				e.setObserving(true)
			}
		}
		prevTraffic := e.net.Counters().Snapshot()
		prevServer := e.method.ServerTime()
		if err := e.step(); err != nil {
			return nil, err
		}
		if tick < e.cfg.Warmup {
			continue
		}
		d := e.net.Counters().Diff(prevTraffic)
		res.Uplink.Add(float64(d.Sent(metrics.Uplink)))
		res.Downlink.Add(float64(d.Sent(metrics.Downlink)))
		res.Broadcast.Add(float64(d.Sent(metrics.Broadcast)))
		tickUS := float64((e.method.ServerTime() - prevServer).Microseconds())
		res.ServerUS.Add(tickUS)
		if e.cfg.Observe {
			e.servLatUS.Observe(tickUS)
			// Answer staleness: the age of what each query's user sees
			// right now. A query that has no answer yet (At == 0 before
			// the first update) is not a staleness sample.
			for i := range e.env.Queries {
				if ans := e.method.Answer(e.env.Queries[i].Spec.ID); ans.At > 0 {
					e.stale.Observe(float64(e.now - ans.At))
				}
			}
		}
		if !e.cfg.DisableAudit {
			e.audit(res)
		}
	}
	res.Traffic = e.net.Counters().Diff(baseTraffic)
	if extra != nil {
		end := extra.ExtraMetrics()
		res.Extra = make(map[string]float64, len(end))
		for k, v := range end {
			res.Extra[k] = v - baseExtra[k]
		}
	}
	if e.cfg.Observe {
		e.setObserving(false)
		res.Staleness = e.stale
		res.ReportGaps = e.gaps
		res.ServerLatencyUS = e.servLatUS
	}
	return res, nil
}

// setObserving flips the measured-phase gate of the trace-fed
// collectors (taken between ticks; the lock pairs it with observeEvent,
// which may run on method goroutines mid-tick).
func (e *Engine) setObserving(on bool) {
	e.gapMu.Lock()
	e.observing = on
	e.gapMu.Unlock()
}

// observeEvent feeds the inter-report gap histogram from the trace
// stream: every uplink report an object sends (event reports and
// boundary crossings alike) closes the gap opened by its previous one.
func (e *Engine) observeEvent(ev obs.Event) {
	if ev.Type != obs.EvReportSent && ev.Type != obs.EvBoundaryCrossed {
		return
	}
	e.gapMu.Lock()
	if e.observing {
		if prev, ok := e.gapLast[ev.Object]; ok {
			e.gaps.Observe(float64(ev.At - prev))
		}
	}
	e.gapLast[ev.Object] = ev.At
	e.gapMu.Unlock()
}

// Step advances the simulation by one tick without collecting series or
// auditing; tests and interactive harnesses drive the engine with it.
func (e *Engine) Step() error { return e.step() }

// Now returns the engine's current tick.
func (e *Engine) Now() model.Tick { return e.now }

// step advances the simulation by one tick.
//
// Motion is deliberately serial: each mobility model consumes a single
// shared RNG stream across its whole population, so stepping objects
// concurrently would make trajectories depend on scheduling. Only the
// audit at the end of a measured tick fans out (see audit).
func (e *Engine) step() error {
	e.now++
	dt := e.cfg.DT

	// 1. Motion.
	e.objMdl.Step(e.env.Objects, dt)
	if e.qScratch == nil {
		e.qScratch = make([]model.ObjectState, len(e.env.Queries))
	}
	qStates := e.qScratch
	for i := range e.env.Queries {
		qStates[i] = e.env.Queries[i].State
	}
	e.qryMdl.Step(qStates, dt)
	for i := range e.env.Queries {
		e.env.Queries[i].State = qStates[i]
	}
	if e.truth != nil {
		for _, s := range e.env.Objects {
			if err := e.truth.Update(s.ID, s.Pos); err != nil {
				return fmt.Errorf("sim: truth update: %w", err)
			}
		}
	}

	// 2..4. Protocol rounds.
	e.net.SetNow(e.now)
	e.method.ClientTick(e.now)
	e.net.Flush()
	e.method.ServerTick(e.now)
	e.net.Flush()
	for round := 0; e.method.Finalize(e.now); round++ {
		if round == maxFinalizeRounds {
			return fmt.Errorf("sim: %s did not quiesce at tick %d", e.method.Name(), e.now)
		}
		e.net.Flush()
	}
	return nil
}

// auditChunkSize is the number of consecutive queries one audit chunk
// covers. Chunk boundaries depend only on the query count — never on the
// worker count — so the chunk accumulators, merged in chunk order, yield
// bit-identical audit statistics no matter how many workers ran.
const auditChunkSize = 128

// audit compares every query's maintained answer against ground truth,
// fanning the query chunks out over runtime.GOMAXPROCS workers
// (par.Each; with one, it runs inline). Only auditing parallelizes:
// motion stepping stays serial because the mobility models draw from one
// shared per-model RNG stream (see internal/mobility), and the protocol
// rounds are serial by the slotted-time semantics. The ground-truth
// index is only read here (motion already updated it), the methods'
// Answer accessors are read-only, and each worker reuses a private
// scratch buffer for the brute-force neighbor lists, so the steady-state
// audit allocates no neighbor lists and is race-free. Per-chunk Audit
// accumulators are merged in chunk order after the barrier, which keeps
// the result deterministic (see auditChunkSize).
//
// Ties are honored: when several objects sit at exactly the k-th distance
// (common on lattice-like mobility), any of them is a correct k-th
// neighbor, so an answer that differs from the truth's deterministic
// tie-break only among tie-distance objects is audited as exact.
func (e *Engine) audit(res *Result) {
	n := len(e.env.Queries)
	if n == 0 {
		return
	}
	chunks := (n + auditChunkSize - 1) / auditChunkSize
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if len(e.chunkAudits) < chunks {
		e.chunkAudits = make([]metrics.Audit, chunks)
	}
	if len(e.auditBufs) < workers {
		e.auditBufs = append(e.auditBufs, make([][]model.Neighbor, workers-len(e.auditBufs))...)
	}
	par.Each(chunks, workers, func(w, c int) {
		e.auditChunk(c, &e.chunkAudits[c], &e.auditBufs[w])
	})
	for c := 0; c < chunks; c++ {
		res.Audit.Merge(&e.chunkAudits[c])
		e.chunkAudits[c].Reset()
	}
}

// auditChunk audits queries [c*auditChunkSize, (c+1)*auditChunkSize) into
// the chunk's private accumulator, reusing buf for ground-truth results.
func (e *Engine) auditChunk(c int, a *metrics.Audit, buf *[]model.Neighbor) {
	lo := c * auditChunkSize
	hi := lo + auditChunkSize
	if hi > len(e.env.Queries) {
		hi = len(e.env.Queries)
	}
	for i := lo; i < hi; i++ {
		q := &e.env.Queries[i]
		var truthNs []model.Neighbor
		if q.Spec.IsRange() {
			truthNs = e.truth.Range(geo.Circle{Center: q.State.Pos, R: q.Spec.Range}, nil, (*buf)[:0])
		} else {
			truthNs = e.truth.KNN(q.State.Pos, q.Spec.K, nil, (*buf)[:0])
		}
		if cap(truthNs) > cap(*buf) {
			*buf = truthNs
		}
		truth := model.Answer{Query: q.Spec.ID, At: e.now, Neighbors: truthNs}
		got := e.method.Answer(q.Spec.ID)
		if !model.SameMembers(got, truth) && e.tieEquivalent(got, truth, q.State.Pos) {
			got = truth
		}
		a.Observe(got, truth)
	}
}

// tieEquivalent reports whether got is a valid kNN answer differing from
// truth only in the choice among objects tied (within float tolerance) at
// the k-th distance.
func (e *Engine) tieEquivalent(got, truth model.Answer, q geo.Point) bool {
	if len(got.Neighbors) != len(truth.Neighbors) {
		return false
	}
	dk := truth.KthDist()
	tol := 1e-6 + dk*1e-9
	truthSet := truth.IDSet()
	for _, n := range got.Neighbors {
		if truthSet[n.ID] {
			continue
		}
		p, ok := e.truth.Position(n.ID)
		if !ok {
			return false
		}
		if d := p.Dist(q); d > dk+tol {
			return false
		}
	}
	return true
}

// Run is the convenience entry point: build an engine for (cfg, method)
// and run it.
func Run(cfg Config, method Method) (*Result, error) {
	e, err := NewEngine(cfg, method)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
