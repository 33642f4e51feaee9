package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/knn"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// ServerDeps are the environment bindings a Server needs. They decouple
// the protocol state machine from the medium: the simulation engine and
// the TCP daemon provide different implementations.
type ServerDeps struct {
	// Side is the sending surface toward the clients.
	Side transport.ServerSide
	// Now returns the current evaluation tick.
	Now func() model.Tick
	// DT is the duration of one tick in seconds.
	DT float64
	// Speed bounds of the population; the safety slack is sized from
	// them.
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	// LatencyTicks is the known one-way delivery delay bound (0 for an
	// in-process medium); probe deadlines are scheduled from it.
	LatencyTicks int
	// Trace, when non-nil, receives a lifecycle event at every protocol
	// transition (register, probe, install, answer, resync). nil
	// disables tracing at the cost of one branch per site.
	Trace obs.Sink
}

// Server is the DKNN server: per registered query it runs the probe →
// install → event-maintenance cycle described in the package comment.
//
// Server is safe for concurrent use; every entry point takes its lock.
// In the simulation the lock is uncontended.
type Server struct {
	cfg  Config
	deps ServerDeps

	mu       sync.Mutex
	monitors map[model.QueryID]*monitor
	order    []model.QueryID // sorted, for deterministic iteration

	busy time.Duration
}

// NewServer returns a DKNN server for the given protocol configuration
// and environment bindings.
func NewServer(cfg Config, deps ServerDeps) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxProbeRadius <= 0 {
		return nil, errNoMaxProbeRadius
	}
	return &Server{
		cfg:      cfg,
		deps:     deps,
		monitors: make(map[model.QueryID]*monitor),
	}, nil
}

// monitor is the server's per-query state.
type monitor struct {
	query model.QueryID
	k     int
	rng   float64        // fixed range; 0 means kNN mode
	addr  model.ObjectID // focal client's network address

	// Advertised query track: the focal client's last reported position
	// and velocity. Server and aware objects extrapolate the same line.
	qpos geo.Point
	qvel geo.Vector
	qat  model.Tick

	// Install state.
	epoch        uint32
	installed    bool
	answerRadius float64
	radius       float64
	installedAt  model.Tick
	prevRegion   geo.Circle // last installed region, for covering reinstalls

	// Working state maintained from reports: per aware object its last
	// known position, whether it is inside the answer circle, and whether
	// the last answer message named it. answer is the maintained answer
	// as of the last computeAnswer; unless it was filled from the annulus
	// it is a prefix of tab's ranking, and every table mutation is
	// followed by a computeAnswer before the server lock is released.
	tab    memberTable
	answer []model.Neighbor
	// rebaseline forces the next answer message to be a full update
	// (set by installs so delta-mode clients resynchronize).
	rebaseline bool
	// answerSeq numbers the answer stream: it increments on every answer
	// message (full or delta) downlinked for this query, letting the focal
	// client detect lost, duplicated, and reordered answers.
	answerSeq uint32
	// resyncProbe marks a probe started by the periodic ResyncTicks timer:
	// when it concludes, the focal client is unconditionally re-baselined
	// with a full AnswerUpdate even if membership did not change, healing
	// any client-side divergence accumulated from lost messages.
	resyncProbe bool

	needsReinstall bool

	// Influence state (Config.Influence only): the advertised frontier F
	// and band, zero when no valid frontier exists for the current epoch
	// (agents then fall back to the θ drift rule). frontierRefreshes
	// counts the frontier-triggered refreshes issued this tick so a
	// pathological oscillation cannot keep Finalize from quiescing.
	frontier          float64
	band              float64
	frontierRefreshes int

	// Probe state.
	probing     bool
	probeSeq    uint32
	probeRadius float64
	probeDue    model.Tick
	lastProbeAt model.Tick
	replies     *knn.CandidateSet

	// Report-path scratch, reused across calls so the steady-state
	// report → answer path performs no allocations. accBuf backs an
	// annulus-filled mon.answer; the delta send path copies addedBuf and
	// removedBuf into the outgoing message because the transport retains
	// message payloads until delivery.
	accBuf     []model.Neighbor
	extraBuf   []model.Neighbor
	addedBuf   []model.Neighbor
	removedBuf []model.ObjectID
}

// newMonitor returns a monitor with empty working state for a kNN query
// (rng 0) or a range query.
func newMonitor(q model.QueryID, k int, rng float64, addr model.ObjectID) *monitor {
	mon := &monitor{query: q, k: k, rng: rng, addr: addr, replies: knn.NewCandidateSet()}
	mon.tab.cut = k
	if rng > 0 {
		mon.tab.cut = math.MaxInt
	}
	return mon
}

// BusyTime returns the cumulative wall-clock time spent processing.
func (s *Server) BusyTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// QueryCount returns the number of registered queries.
func (s *Server) QueryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.monitors)
}

func (s *Server) track(start time.Time) { s.busy += time.Since(start) }

// emit marks the node/direction fields unset and records e. Callers
// guard with s.deps.Trace != nil so the disabled path stays a single
// branch with no event construction.
func (s *Server) emit(e obs.Event) {
	e.Node, e.Dir = -1, -1
	s.deps.Trace.Record(e)
}

// HandleUplink implements transport.ServerHandler.
func (s *Server) HandleUplink(from model.ObjectID, msg protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(time.Now())
	s.handleUplinkLocked(from, msg, s.deps.Now())
}

// Ingest is one queued arrival for HandleUplinkBatch. A nil Msg is a
// disconnect marker: the batch processor applies the same purge as
// HandleClientGone(From) at that point of the arrival order.
type Ingest struct {
	// Seq is a caller-assigned global arrival number. The server does not
	// interpret it; batching callers use it to reconstruct the arrival
	// order of sends deferred across shards (see internal/shard).
	Seq  uint64
	From model.ObjectID
	Msg  protocol.Message
}

// HandleUplinkBatch processes a tick's queued arrivals in slice order
// under one lock acquisition and one busy-time sample. It is
// semantically the loop
//
//	for _, in := range batch { s.HandleUplink(in.From, in.Msg) }
//
// with nil-Msg entries standing in for HandleClientGone(in.From). The
// optional before hook runs just before each entry is applied (still
// under the server lock); batching callers use it to stamp the entry's
// Seq onto their send-capturing transport so every send the entry
// triggers is attributable to its arrival position.
func (s *Server) HandleUplinkBatch(batch []Ingest, before func(Ingest)) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(time.Now())
	now := s.deps.Now()
	for _, in := range batch {
		if before != nil {
			before(in)
		}
		if in.Msg == nil {
			s.clientGoneLocked(in.From, now)
			continue
		}
		s.handleUplinkLocked(in.From, in.Msg, now)
	}
}

func (s *Server) handleUplinkLocked(from model.ObjectID, msg protocol.Message, now model.Tick) {
	switch v := msg.(type) {
	case protocol.QueryRegister:
		s.register(v, from)
	case protocol.QueryMove:
		if mon, ok := s.monitors[v.Query]; ok && finitePoint(v.Pos) && finiteVec(v.Vel) {
			mon.qpos, mon.qvel, mon.qat = v.Pos, v.Vel, v.At
			mon.needsReinstall = true
		}
	case protocol.QueryDeregister:
		s.deregister(v.Query)
	case protocol.AnswerResync:
		// Only the query's own focal client may force a re-baseline.
		if mon, ok := s.monitors[v.Query]; ok && mon.addr == from {
			s.resyncAnswer(mon, now)
		}
	// A stored non-finite position yields a NaN distance, which the
	// neighbor order places first: every position-bearing report is
	// dropped unless its position is finite.
	case protocol.ProbeReply:
		if mon, ok := s.monitors[v.Query]; ok && mon.probing && v.Seq == mon.probeSeq && finitePoint(v.Pos) {
			mon.replies.Set(v.Object, v.Pos)
		}
	case protocol.EnterReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil && finitePoint(v.Pos) {
			mon.tab.set(v.Object, v.Pos, true)
			s.refreshAnswer(mon, now)
		}
	case protocol.ExitReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil && finitePoint(v.Pos) {
			mon.tab.set(v.Object, v.Pos, false)
			mon.noteUnderfull()
			s.refreshAnswer(mon, now)
		}
	case protocol.LeaveReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil && finitePoint(v.Pos) {
			if _, wasInside := mon.tab.forget(v.Object); wasInside {
				mon.noteUnderfull()
			}
			s.refreshAnswer(mon, now)
		}
	case protocol.MoveReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil && finitePoint(v.Pos) {
			// A MoveReport is sent only by objects that believe they are
			// inside the answer circle, so it doubles as a membership
			// affirmation — under message loss this heals a lost
			// EnterReport within one tick.
			mon.tab.set(v.Object, v.Pos, true)
			s.refreshAnswer(mon, now)
		}
	default:
		// Other kinds (e.g. LocationReport) are not part of this
		// protocol; ignore rather than fail, as a real server must.
	}
}

// HandleClientGone implements transport.DisconnectHandler: a vanished
// client is purged from every monitor it participates in, and a vanished
// focal client takes its query down with it.
func (s *Server) HandleClientGone(id model.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(time.Now())
	s.clientGoneLocked(id, s.deps.Now())
}

func (s *Server) clientGoneLocked(id model.ObjectID, now model.Tick) {
	var deadQueries []model.QueryID
	for _, q := range s.order {
		mon := s.monitors[q]
		if mon.addr == id {
			deadQueries = append(deadQueries, q)
			continue
		}
		// A reply from the vanished client may still sit in a pending
		// probe round; purge it before the round concludes into state.
		mon.replies.Remove(id)
		touched, wasInside := mon.tab.forget(id)
		if !touched {
			continue
		}
		if wasInside {
			mon.noteUnderfull()
		}
		s.refreshAnswer(mon, now)
	}
	for _, q := range deadQueries {
		s.deregister(q)
	}
}

// epochGrace is how many epochs behind the live one a report may be and
// still be applied. Under delivery latency, a report legitimately crosses
// a reinstall in flight; its position payload is still current and — for
// enter/move affirmations — adding a correctly-positioned candidate can
// never evict a true neighbor from the top-k. With zero latency no report
// ever lags, so the grace window cannot affect the exact mode.
const epochGrace = 2

// refreshMinGap is the minimum number of ticks between buffer-driven
// refresh reinstalls of one query.
const refreshMinGap = 2

// noteUnderfull marks a kNN monitor for reinstall once fewer than k
// objects remain inside its answer circle.
func (mon *monitor) noteUnderfull() {
	if mon.rng == 0 && mon.tab.nInside < mon.k {
		mon.needsReinstall = true
	}
}

// current returns the monitor for q if the report's epoch is the live one
// or within the grace window; older reports are discarded.
func (s *Server) current(q model.QueryID, epoch uint32) *monitor {
	mon, ok := s.monitors[q]
	if !ok || epoch > mon.epoch || mon.epoch-epoch > epochGrace {
		return nil
	}
	return mon
}

// maxK bounds the accepted kNN parameter: a wire-supplied k feeds
// allocation sizes, so an absurd value is a denial-of-service attempt,
// not a query.
const maxK = 1 << 16

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func finitePoint(p geo.Point) bool { return finite(p.X) && finite(p.Y) }

func finiteVec(v geo.Vector) bool { return finite(v.X) && finite(v.Y) }

func (s *Server) register(v protocol.QueryRegister, from model.ObjectID) {
	if mon, exists := s.monitors[v.Query]; exists {
		// Duplicate registration: keep existing state. When it comes from
		// the query's own focal client, the client restarted without local
		// state — re-baseline it with a full AnswerUpdate so it does not
		// sit on an empty answer until the next periodic probe.
		if mon.addr == from {
			s.resyncAnswer(mon, s.deps.Now())
		}
		return
	}
	// Sanitize wire input: this is an open network surface. A non-finite
	// velocity is as poisonous as a non-finite position — it corrupts
	// every subsequent dead-reckoning extrapolation for the monitor.
	if v.Range < 0 || math.IsNaN(v.Range) || math.IsInf(v.Range, 0) ||
		!finitePoint(v.Pos) || !finiteVec(v.Vel) ||
		(v.Range == 0 && (v.K == 0 || v.K > maxK)) {
		return
	}
	mon := newMonitor(v.Query, int(v.K), v.Range, from)
	mon.qpos, mon.qvel, mon.qat = v.Pos, v.Vel, v.At
	mon.needsReinstall = true
	s.monitors[v.Query] = mon
	// s.order stays sorted: insert at the binary-search position instead
	// of re-sorting the whole slice on every registration.
	i, _ := slices.BinarySearch(s.order, v.Query)
	s.order = slices.Insert(s.order, i, v.Query)
	if s.deps.Trace != nil {
		v := float64(mon.k)
		if mon.rng > 0 {
			v = mon.rng
		}
		s.emit(obs.Event{At: s.deps.Now(), Type: obs.EvQueryRegistered,
			Query: mon.query, Object: from, Value: v})
	}
}

func (s *Server) deregister(q model.QueryID) {
	mon, ok := s.monitors[q]
	if !ok {
		return
	}
	if mon.installed {
		s.deps.Side.Broadcast(mon.prevRegion, protocol.MonitorCancel{Query: q, Epoch: mon.epoch})
	}
	delete(s.monitors, q)
	if i, found := slices.BinarySearch(s.order, q); found {
		s.order = slices.Delete(s.order, i, i+1)
	}
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: s.deps.Now(), Type: obs.EvQueryDeregistered, Query: q})
	}
}

// qEst extrapolates the advertised query track to now.
func (mon *monitor) qEst(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.qat)*dt)
}

// delta is the monitoring-region slack: the worst-case relative
// displacement between query and object over the reinstall horizon.
func (s *Server) delta() float64 {
	return geo.SafeRadius(0, s.deps.MaxObjectSpeed, s.deps.MaxQuerySpeed,
		float64(s.cfg.HorizonTicks)*s.deps.DT)
}

// Tick runs the periodic server work: horizon expiry, buffer checks, and
// probe initiation for monitors that need a reinstall.
func (s *Server) Tick(now model.Tick) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(time.Now())
	cfg := s.cfg
	for _, q := range s.order {
		mon := s.monitors[q]
		mon.frontierRefreshes = 0
		if mon.probing {
			continue
		}
		// Influence mode: the maintained answer ranks stored member
		// positions against the dead-reckoned query, so it drifts with the
		// query even on report-free ticks — and suppressed members only
		// guarantee their side of F relative to that same moving view. A
		// purely query-motion-driven reordering must therefore be detected
		// here, not just on applied reports: re-evaluating invalidates the
		// frontier (computeAnswer re-checks it) and the Finalize sweep's
		// refresh + correction wave then repairs membership this tick.
		if cfg.Influence && mon.rng == 0 && mon.installed && mon.frontier > 0 {
			s.refreshAnswer(mon, now)
		}
		if mon.installed && now-mon.installedAt >= model.Tick(cfg.HorizonTicks) {
			mon.needsReinstall = true
		}
		// Periodic full resynchronization for lossy deployments: a probe
		// rebuilds all per-query state from scratch, healing any
		// client/server desynchronization accumulated from lost messages.
		if cfg.ResyncTicks > 0 && mon.installed &&
			now-mon.lastProbeAt >= model.Tick(cfg.ResyncTicks) {
			mon.resyncProbe = true
			s.startProbe(mon, now)
			continue
		}
		// Refill the answer buffer before it drains (half-empty), and
		// shrink it when it overflows to twice the target — both are
		// cheap refreshes, not probes. Range monitors have a fixed
		// boundary: no buffer to manage. Rate-limited: when the world
		// simply has no more objects to recruit, refreshing every tick
		// would advance the epoch faster than in-flight reports can
		// follow.
		if mon.rng == 0 && cfg.AnswerSlack > 0 && mon.installed &&
			now-mon.installedAt >= refreshMinGap {
			count, target := mon.tab.nInside, mon.k+cfg.AnswerSlack
			if count < mon.k+(cfg.AnswerSlack+1)/2 || count > 2*target {
				mon.needsReinstall = true
			}
		}
		if !mon.needsReinstall {
			continue
		}
		// A refresh reinstall is possible whenever the server still knows
		// at least k objects inside the answer circle with fresh
		// positions: no probe, no mass replies — objects self-report side
		// changes relative to their previous monitor state. The full
		// expanding-ring probe remains for bootstrap and for recovery
		// when exits/leaves dropped the inside count below k. Range
		// monitors always refresh once installed (membership is
		// self-maintaining at any population).
		if mon.installed && (mon.rng > 0 || mon.tab.nInside >= mon.k) {
			s.refreshInstall(mon, now)
		} else {
			s.startProbe(mon, now)
		}
	}
}

// refreshInstall reinstalls the monitor around the current query estimate
// without probing. The advertised boundary is sized to enclose the
// k+AnswerSlack buffer; agents' side-change reports (same tick under zero
// latency) then resynchronize membership exactly.
func (s *Server) refreshInstall(mon *monitor, now model.Tick) {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)

	var rk float64
	if mon.rng > 0 {
		rk = mon.rng
	} else {
		acc := mon.tab.rankedAt(center)
		if len(acc) < mon.k {
			// Positions for some inside ids are missing (cannot happen in
			// normal operation; defensive): fall back to a probe.
			s.startProbe(mon, now)
			return
		}
		rk = s.boundaryFromKnown(mon, acc)
	}
	if rk > cfg.MaxProbeRadius {
		rk = cfg.MaxProbeRadius
	}
	radius := rk + s.delta()
	if radius > cfg.MaxProbeRadius {
		radius = cfg.MaxProbeRadius
	}
	region := geo.Circle{Center: center, R: radius}

	mon.epoch++
	mon.answerRadius = rk
	mon.radius = radius
	mon.installedAt = now
	mon.needsReinstall = false

	// Objects strictly outside the new circle will exit/drop themselves;
	// prune candidates whose last known position is already outside so
	// stale annulus entries do not accumulate.
	mon.tab.prune(center, radius)

	cover := region
	if mon.prevRegion.R > 0 {
		if need := center.Dist(mon.prevRegion.Center) + mon.prevRegion.R; need > cover.R {
			cover.R = need
		}
	}
	mon.prevRegion = region

	if s.cfg.Influence {
		s.updateFrontier(mon, center, rk)
	}
	s.broadcastInstall(cover, mon, protocol.MonitorInstall{
		Query:        mon.query,
		Epoch:        mon.epoch,
		Refresh:      true,
		RangeMode:    mon.rng > 0,
		QueryPos:     center,
		QueryVel:     mon.qvel,
		AnswerRadius: rk,
		Radius:       radius,
		At:           now,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvInstalled, Query: mon.query,
			Seq: mon.epoch, Value: radius})
	}
	s.refreshAnswer(mon, now)
}

// boundaryFromKnown sizes the advertised answer boundary from a sorted
// list of known neighbor distances: the (k+m)-th distance when known,
// otherwise a local-density extrapolation from the outermost known
// object.
func (s *Server) boundaryFromKnown(mon *monitor, sorted []model.Neighbor) float64 {
	target := mon.k + s.cfg.AnswerSlack
	if len(sorted) >= target {
		return sorted[target-1].Dist
	}
	outer := sorted[len(sorted)-1].Dist
	if outer <= 0 {
		return s.cfg.MinProbeRadius
	}
	// Area scales with count under locally uniform density.
	est := outer * math.Sqrt(float64(target)/float64(len(sorted)))
	if est > s.cfg.MaxProbeRadius {
		est = s.cfg.MaxProbeRadius
	}
	return est
}

// maxFrontierRefreshes caps the frontier-triggered refreshes one monitor
// may issue per tick. Each correction wave permanently freshens at least
// one member, so convergence normally takes one or two rounds; the cap
// guarantees Finalize quiesces even if a report pattern oscillates.
const maxFrontierRefreshes = 8

// updateFrontier derives the influence frontier for a freshly installed
// kNN monitor: the midpoint between the k-th and (k+1)-th inside-member
// distances, with the band as half the gap. The frontier is valid only
// when it strictly separates the k-th member from the boundary rk —
// degenerate geometries (ties, fewer than k+1 members hugging rk, range
// mode) advertise zero and agents fall back to the θ rule.
func (s *Server) updateFrontier(mon *monitor, center geo.Point, rk float64) {
	mon.frontier, mon.band = 0, 0
	if mon.rng > 0 {
		return
	}
	acc := mon.tab.rankedAt(center)
	if len(acc) < mon.k {
		return
	}
	dk := acc[mon.k-1].Dist
	dnext := rk
	if len(acc) > mon.k {
		dnext = acc[mon.k].Dist
	}
	f := (dk + dnext) / 2
	if !(dk < f && f < rk) {
		return
	}
	mon.frontier = f
	mon.band = (dnext - dk) / 2
}

// frontierValid re-checks the advertised frontier against the sorted
// inside-member distances: it holds exactly when the k-th member is still
// at or below F and the (k+1)-th (if any) is beyond it. Every applied
// report re-runs this; a violation means the influence set changed and
// the monitor must refresh.
func (mon *monitor) frontierValid(sorted []model.Neighbor) bool {
	if len(sorted) < mon.k {
		return false
	}
	if sorted[mon.k-1].Dist > mon.frontier {
		return false
	}
	return len(sorted) == mon.k || sorted[mon.k].Dist > mon.frontier
}

// broadcastInstall sends the monitor (re)install over cover: the classic
// MonitorInstall, or its influence-extended form carrying the frontier
// when influence mode is on — keeping the off-mode wire byte-identical.
func (s *Server) broadcastInstall(cover geo.Circle, mon *monitor, inst protocol.MonitorInstall) {
	if s.cfg.Influence {
		s.deps.Side.Broadcast(cover, protocol.InfluenceInstall{
			Install: inst, Frontier: mon.frontier, Band: mon.band,
		})
		return
	}
	s.deps.Side.Broadcast(cover, inst)
}

// startProbe begins a probe round sized from current knowledge.
func (s *Server) startProbe(mon *monitor, now model.Tick) {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)
	radius := cfg.MinProbeRadius
	if mon.rng > 0 {
		// Range monitors need exactly one probe over the whole region.
		radius = mon.rng + s.delta()
	} else if mon.tab.nKnown >= mon.k {
		// If we already track at least k candidates, size the ring from
		// the k-th known distance plus the safety slack.
		known := mon.tab.appendKnown(mon.extraBuf[:0], center, true)
		mon.extraBuf = known
		model.SortNeighbors(known)
		if est := known[mon.k-1].Dist + s.delta(); est > radius {
			radius = est
		}
	}
	if radius > cfg.MaxProbeRadius {
		radius = cfg.MaxProbeRadius
	}
	mon.probing = true
	mon.probeSeq++
	mon.probeRadius = radius
	mon.probeDue = now + model.Tick(2*s.deps.LatencyTicks)
	mon.lastProbeAt = now
	mon.replies.Clear()
	s.deps.Side.Broadcast(geo.Circle{Center: center, R: radius}, protocol.ProbeRequest{
		Query:  mon.query,
		Seq:    mon.probeSeq,
		Region: geo.Circle{Center: center, R: radius},
		At:     now,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvProbe, Query: mon.query,
			Seq: mon.probeSeq, Value: radius})
	}
}

// Finalize completes probe rounds whose replies are in: either expand the
// ring or install the monitor. It reports whether any message was sent,
// so the driver flushes and calls again.
func (s *Server) Finalize(now model.Tick) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(time.Now())
	sent := false
	for _, q := range s.order {
		mon := s.monitors[q]
		if !mon.probing || now < mon.probeDue {
			continue
		}
		if s.concludeProbe(mon, now) {
			sent = true
		}
	}
	// Influence mode: reinstall the moment the influence set changes
	// rather than waiting for the next Tick. Reports applied this round
	// may have invalidated a frontier; refreshing here lets the agents'
	// correction reports and the re-derived frontier converge within the
	// same tick (the driver flushes and calls Finalize again as long as
	// anything was sent). Capped per monitor per tick so an oscillating
	// report pattern cannot keep the tick from quiescing.
	if s.cfg.Influence {
		for _, q := range s.order {
			mon := s.monitors[q]
			if !mon.needsReinstall || !mon.installed || mon.probing ||
				mon.frontierRefreshes >= maxFrontierRefreshes {
				continue
			}
			if mon.rng == 0 && mon.tab.nInside < mon.k {
				continue // under-full circle: next Tick's probe recovers it
			}
			mon.frontierRefreshes++
			s.refreshInstall(mon, now)
			sent = true
		}
	}
	return sent
}

func (s *Server) concludeProbe(mon *monitor, now model.Tick) bool {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)

	if mon.rng > 0 {
		// Range monitor: the probe covered the full monitoring region;
		// install directly with the fixed boundary.
		radius := mon.rng + s.delta()
		if radius > cfg.MaxProbeRadius {
			radius = cfg.MaxProbeRadius
		}
		s.install(mon, now, center, mon.rng, radius)
		return true
	}

	if mon.replies.Len() < mon.k && mon.probeRadius < cfg.MaxProbeRadius {
		// Not enough objects inside the ring: double it.
		s.expandProbe(mon, now, min(2*mon.probeRadius, cfg.MaxProbeRadius))
		return true
	}

	target := mon.k + cfg.AnswerSlack
	ns := mon.replies.KNN(center, target)
	var rk float64
	switch {
	case len(ns) >= mon.k:
		// Advertise the boundary that encloses the buffer of k+m
		// objects. When the probe found fewer than k+m (but at least k),
		// estimate the buffer radius from local density so the next ring
		// need not expand again.
		rk = s.boundaryFromKnown(mon, ns)
	default:
		// Fewer than k objects exist even probing everything: monitor the
		// whole probed area so every object stays aware and fresh.
		rk = mon.probeRadius
	}
	radius := rk + s.delta()
	if radius > cfg.MaxProbeRadius {
		radius = cfg.MaxProbeRadius
		if rk > radius {
			rk = radius
		}
	}
	if radius > mon.probeRadius {
		// The safety region exceeds the probed area; one more ring makes
		// the candidate set complete. rk can only shrink with a larger
		// ring, so this converges.
		s.expandProbe(mon, now, radius)
		return true
	}
	s.install(mon, now, center, rk, radius)
	return true
}

func (s *Server) expandProbe(mon *monitor, now model.Tick, radius float64) {
	center := mon.qEst(now, s.deps.DT)
	mon.probeSeq++
	mon.probeRadius = radius
	mon.probeDue = now + model.Tick(2*s.deps.LatencyTicks)
	mon.replies.Clear()
	s.deps.Side.Broadcast(geo.Circle{Center: center, R: radius}, protocol.ProbeRequest{
		Query:  mon.query,
		Seq:    mon.probeSeq,
		Region: geo.Circle{Center: center, R: radius},
		At:     now,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvProbe, Query: mon.query,
			Seq: mon.probeSeq, Value: radius})
	}
}

// install commits a probe result: rebuild the candidate and inside sets
// from the replies, advance the epoch, and broadcast the install over a
// region covering both the previous and the new monitoring circles (so
// objects that fell out of the region hear about it and stop monitoring).
func (s *Server) install(mon *monitor, now model.Tick, center geo.Point, rk, radius float64) {
	region := geo.Circle{Center: center, R: radius}
	mon.epoch++
	mon.installed = true
	mon.answerRadius = rk
	mon.radius = radius
	mon.installedAt = now
	mon.probing = false
	mon.needsReinstall = false
	mon.rebaseline = true // next answer message re-baselines delta clients

	mon.tab.reset()
	mon.replies.Visit(func(id model.ObjectID, p geo.Point) bool {
		if d := p.Dist(center); d <= radius {
			mon.tab.set(id, p, d <= rk)
		}
		return true
	})
	mon.replies.Clear()

	cover := region
	if mon.prevRegion.R > 0 {
		if need := center.Dist(mon.prevRegion.Center) + mon.prevRegion.R; need > cover.R {
			cover.R = need
		}
	}
	mon.prevRegion = region

	if s.cfg.Influence {
		s.updateFrontier(mon, center, rk)
	}
	s.broadcastInstall(cover, mon, protocol.MonitorInstall{
		Query:        mon.query,
		Epoch:        mon.epoch,
		RangeMode:    mon.rng > 0,
		QueryPos:     center,
		QueryVel:     mon.qvel,
		AnswerRadius: rk,
		Radius:       radius,
		At:           now,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvInstalled, Query: mon.query,
			Seq: mon.epoch, Value: radius})
	}
	if mon.resyncProbe {
		// A periodic resync probe exists to heal lost-message divergence;
		// the focal client gets a full answer even if membership is
		// unchanged (refreshAnswer would stay silent and leave a desynced
		// client desynced for another ResyncTicks period).
		mon.resyncProbe = false
		s.resyncAnswer(mon, now)
		return
	}
	s.refreshAnswer(mon, now)
}

// computeAnswer re-evaluates the maintained answer at the query's
// current estimate — the leading ranks of the member table, filled from
// annulus candidates while recovering from an under-full circle — and
// stores it in mon.answer.
func (s *Server) computeAnswer(mon *monitor, now model.Tick) []model.Neighbor {
	center := mon.qEst(now, s.deps.DT)
	acc := mon.tab.rankedAt(center)
	// Influence mode: every applied report re-validates the advertised
	// frontier. The instant the influence set changes — the k-th member
	// crossed beyond F, or an annulus member crossed under it — the
	// monitor is marked for a refresh, which re-derives and re-advertises
	// the frontier (the Finalize sweep issues it within the same tick).
	if s.cfg.Influence && mon.rng == 0 && mon.installed && !mon.probing &&
		mon.frontier > 0 && !mon.frontierValid(acc) {
		mon.needsReinstall = true
	}
	if mon.rng > 0 {
		// Range monitor: membership is the answer; positions (and hence
		// the reported distances) are only install-time fresh.
	} else if len(acc) > mon.k {
		acc = acc[:mon.k]
	} else if len(acc) < mon.k && mon.tab.nKnown > len(acc) {
		// Best-effort fill from annulus candidates (stale positions) while
		// a fallback probe is pending.
		extra := mon.tab.appendKnown(mon.extraBuf[:0], center, false)
		mon.extraBuf = extra
		model.SortNeighbors(extra)
		acc = append(append(mon.accBuf[:0], acc...), extra[:min(mon.k-len(acc), len(extra))]...)
		model.SortNeighbors(acc)
		mon.accBuf = acc
	}
	mon.answer = acc
	return acc
}

// sendFullAnswer downlinks acc as a re-baselining full AnswerUpdate.
func (s *Server) sendFullAnswer(mon *monitor, acc []model.Neighbor, now model.Tick) {
	mon.rebaseline = false
	ns := make([]model.Neighbor, len(acc))
	copy(ns, acc)
	mon.answerSeq++
	s.deps.Side.Downlink(mon.addr, protocol.AnswerUpdate{
		Query: mon.query, Seq: mon.answerSeq, At: now,
		QPos: mon.qEst(now, s.deps.DT), Neighbors: ns,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvAnswerFull, Query: mon.query,
			Seq: mon.answerSeq, Value: float64(len(ns))})
	}
}

// refreshAnswer recomputes the maintained answer and downlinks an answer
// message when membership changed (a delta in delta mode, a full update
// otherwise or when a rebaseline is due).
func (s *Server) refreshAnswer(mon *monitor, now model.Tick) {
	acc := s.computeAnswer(mon, now)

	// The common case is "nothing crossed rank k": the table then vouches
	// that the answer's ids are the sent ones. An annulus-filled answer
	// draws on rows outside the ranking and is always compared.
	if !mon.tab.dirty && (mon.rng > 0 || len(mon.tab.ranked) >= mon.k) {
		return
	}
	added, removed := mon.tab.commitSent(acc, mon.addedBuf[:0], mon.removedBuf[:0])
	mon.addedBuf, mon.removedBuf = added, removed
	if len(added)+len(removed) == 0 {
		return
	}
	if s.cfg.DeltaAnswers && !mon.rebaseline {
		mon.answerSeq++
		// The transport retains the payload until delivery, and the scratch
		// slices will be overwritten by the next report; the outgoing delta
		// gets its own copies (nil stays nil, matching the old wire shape).
		var outAdded []model.Neighbor
		if len(added) > 0 {
			outAdded = slices.Clone(added)
		}
		var outRemoved []model.ObjectID
		if len(removed) > 0 {
			outRemoved = slices.Clone(removed)
		}
		s.deps.Side.Downlink(mon.addr, protocol.AnswerDelta{
			Query: mon.query, Seq: mon.answerSeq, At: now, Added: outAdded, Removed: outRemoved,
		})
		if s.deps.Trace != nil {
			s.emit(obs.Event{At: now, Type: obs.EvAnswerDelta, Query: mon.query,
				Seq: mon.answerSeq, Value: float64(len(outAdded) + len(outRemoved))})
		}
		return
	}
	s.sendFullAnswer(mon, acc, now)
}

// resyncAnswer unconditionally re-baselines the focal client with a full
// AnswerUpdate, regardless of whether membership changed since the last
// answer message. This is the server half of the answer-resync protocol:
// it runs on a client's explicit resync request, on a re-registration
// from the focal client (client restart), and when a periodic
// ResyncTicks probe concludes.
func (s *Server) resyncAnswer(mon *monitor, now model.Tick) {
	acc := s.computeAnswer(mon, now)
	mon.addedBuf, mon.removedBuf = mon.tab.commitSent(acc, mon.addedBuf[:0], mon.removedBuf[:0])
	s.sendFullAnswer(mon, acc, now)
}

// Answer returns the server's maintained answer for q.
func (s *Server) Answer(q model.QueryID) model.Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	mon, ok := s.monitors[q]
	if !ok {
		return model.Answer{Query: q}
	}
	ns := make([]model.Neighbor, len(mon.answer))
	copy(ns, mon.answer)
	return model.Answer{Query: q, At: s.deps.Now(), Neighbors: ns}
}
