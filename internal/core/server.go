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

	busy     time.Duration
	installs InstallCounts
}

// InstallCounts counts a server's monitor installs by the cause that
// requested them. A refresh install counts when Tick sends it, a probed
// one when its probe concludes; a request made while another is pending
// rides on the first one's install.
type InstallCounts struct {
	Bootstrap  uint64 `json:"bootstrap"`   // a query's first install
	Horizon    uint64 `json:"horizon"`     // H_q ticks passed since the last install
	BufferLow  uint64 `json:"buffer_low"`  // the answer buffer half drained
	BufferHigh uint64 `json:"buffer_high"` // the answer buffer overflowed
	QueryMove  uint64 `json:"query_move"`  // the focal client advertised a new track
	Underfull  uint64 `json:"underfull"`   // fewer than k objects stayed inside
	Resync     uint64 `json:"resync"`      // the periodic ResyncTicks probe
}

// Plus returns the field-wise sum of c and o.
func (c InstallCounts) Plus(o InstallCounts) InstallCounts {
	return InstallCounts{
		Bootstrap: c.Bootstrap + o.Bootstrap, Horizon: c.Horizon + o.Horizon,
		BufferLow: c.BufferLow + o.BufferLow, BufferHigh: c.BufferHigh + o.BufferHigh,
		QueryMove: c.QueryMove + o.QueryMove, Underfull: c.Underfull + o.Underfull,
		Resync: c.Resync + o.Resync,
	}
}

// installCause is why a monitor awaits a (re)install; noReinstall means
// it does not.
type installCause uint8

const (
	noReinstall installCause = iota
	causeBootstrap
	causeHorizon
	causeBufferLow
	causeBufferHigh
	causeQueryMove
	causeUnderfull
	causeResync
)

// add counts one install for cause.
func (c *InstallCounts) add(cause installCause) {
	switch cause {
	case causeBootstrap:
		c.Bootstrap++
	case causeHorizon:
		c.Horizon++
	case causeBufferLow:
		c.BufferLow++
	case causeBufferHigh:
		c.BufferHigh++
	case causeQueryMove:
		c.QueryMove++
	case causeUnderfull:
		c.Underfull++
	case causeResync:
		c.Resync++
	}
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

	// Heard query track: the focal client's last reported position and
	// velocity, from which the server estimates the query.
	qpos geo.Point
	qvel geo.Vector
	qat  model.Tick

	// Install state. advPos and advVel are the track the last install
	// advertised at installedAt: aware objects dead-reckon their region
	// along it (see frame). It is the heard track's line until a QueryMove
	// arrives; the next install advertises the heard track again.
	epoch        uint32
	installed    bool
	answerRadius float64
	radius       float64
	installedAt  model.Tick
	advPos       geo.Point
	advVel       geo.Vector
	// past holds the installs before the last, newest first, as far back
	// as a report may lag (epoch 0: none). The aware objects hold past[0]
	// for the L ticks the last install takes to reach them; prevOK is set
	// only when the last install was a refresh (see heldFrame).
	past   [epochGrace]track
	prevOK bool

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
	// answerPending marks an answer recomputed since the last answer
	// message; Finalize sends it, at most once per query per round.
	answerPending bool
	// answerSeq numbers the answer stream: it increments on every answer
	// message (full or delta) downlinked for this query, letting the focal
	// client detect lost, duplicated, and reordered answers.
	answerSeq uint32
	// resyncProbe marks a probe started by the periodic ResyncTicks timer:
	// when it concludes, the focal client is unconditionally re-baselined
	// with a full AnswerUpdate even if membership did not change, healing
	// any client-side divergence accumulated from lost messages.
	resyncProbe bool

	// reinstall is the cause of the pending (re)install request, or
	// noReinstall. The first request made stands until the install.
	reinstall installCause

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
// (rng 0) or a range query, whose members' tracks advance dt seconds a
// tick.
func newMonitor(q model.QueryID, k int, rng float64, addr model.ObjectID, dt float64) *monitor {
	mon := &monitor{query: q, k: k, rng: rng, addr: addr, replies: knn.NewCandidateSet()}
	mon.tab.cut, mon.tab.dt = k, dt
	if rng > 0 {
		mon.tab.cut = maxK
	}
	return mon
}

// BusyTime returns the cumulative elapsed time spent processing, as the
// monotonic clock measures it (obs.Stamp).
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

func (s *Server) track(start obs.Stamp) { s.busy += start.Elapsed() }

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
	defer s.track(obs.Now())
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
	defer s.track(obs.Now())
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
			mon.requestReinstall(causeQueryMove)
		}
	case protocol.QueryDeregister:
		s.deregister(v.Query, now)
	case protocol.AnswerResync:
		// Only the query's own focal client may force a re-baseline.
		if mon, ok := s.monitors[v.Query]; ok && mon.addr == from {
			s.resyncAnswer(mon, now)
		}
	// A stored non-finite position yields a NaN distance, which the
	// neighbor order places first: every position-bearing report is
	// dropped unless its position, and its velocity if it has one, is
	// finite.
	case protocol.ProbeReply:
		if mon, ok := s.monitors[v.Query]; ok && mon.probing && v.Seq == mon.probeSeq && finitePoint(v.Pos) {
			mon.replies.Set(v.Object, v.Pos)
		}
	case protocol.EnterReport:
		s.place(v.MemberReport, v.Vel, true, now)
	case protocol.MoveReport:
		s.place(v.MemberReport, v.Vel, true, now)
	case protocol.ExitReport:
		s.place(v.MemberReport, geo.Vector{}, false, now)
	default:
		// Other kinds (e.g. LocationReport) are not part of this
		// protocol; ignore rather than fail, as a real server must.
	}
}

// place files a member report: an exit (a range member's) outside, a
// track report (an Enter or a Move) inside or, for a kNN query, on the side
// trackInside gives it at its tick against the install it names, as its
// object decided; an install the server no longer knows counts as inside.
// A row outside is at rest at its point, as exitOffCircle files one; a
// track inside affirms membership, which heals a lost Enter.
func (s *Server) place(r protocol.MemberReport, vel geo.Vector, inside bool, now model.Tick) {
	mon := s.current(r.Query, r.Epoch)
	if mon == nil || !finitePoint(r.Pos) || !finiteVec(vel) {
		return
	}
	l := line{r.Pos, vel, r.At}
	if f, ok := mon.installOf(r.Epoch); inside && ok && mon.rng == 0 {
		inside = trackInside(&l, &f.adv, f.answerRadius, r.At, s.deps.DT)
	}
	if !inside {
		l.vel = geo.Vector{}
	}
	mon.tab.set(r.Object, l, inside)
	if !inside {
		mon.noteUnderfull()
	}
	s.refreshAnswer(mon, now)
}

// HandleClientGone implements transport.DisconnectHandler: a vanished
// client is purged from every monitor it participates in, and a vanished
// focal client takes its query down with it.
func (s *Server) HandleClientGone(id model.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(obs.Now())
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
		s.deregister(q, now)
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
		mon.requestReinstall(causeUnderfull)
	}
}

// requestReinstall asks for a (re)install for cause unless one is
// already pending.
func (mon *monitor) requestReinstall(cause installCause) {
	if mon.reinstall == noReinstall {
		mon.reinstall = cause
	}
}

// countInstall files the install being sent under the cause that
// requested it and clears the request.
func (s *Server) countInstall(mon *monitor) {
	cause := mon.reinstall
	if mon.resyncProbe {
		cause = causeResync
	}
	s.installs.add(cause)
	mon.reinstall = noReinstall
}

// Installs returns the server's install counts by cause.
func (s *Server) Installs() InstallCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installs
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
// not a query. An answer's neighbor count travels as a u16, so no larger
// k could be answered either, and a range answer names at most its
// nearest maxK members.
const maxK = math.MaxUint16

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
	mon := newMonitor(v.Query, int(v.K), v.Range, from, s.deps.DT)
	mon.qpos, mon.qvel, mon.qat = v.Pos, v.Vel, v.At
	mon.reinstall = causeBootstrap
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

// deregister drops q's monitor. The cancel is broadcast over the frame
// the aware objects hold when it arrives.
func (s *Server) deregister(q model.QueryID, now model.Tick) {
	mon, ok := s.monitors[q]
	if !ok {
		return
	}
	if mon.installed {
		s.deps.Side.Broadcast(mon.frame(now+model.Tick(s.deps.LatencyTicks), s.deps.DT),
			protocol.MonitorCancel{Query: q, Epoch: mon.epoch})
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

// frame is the monitoring region an object that heard the last install
// holds at tick t: the installed circle carried along the advertised
// track.
func (mon *monitor) frame(t model.Tick, dt float64) geo.Circle {
	return geo.Circle{Center: geo.DeadReckon(mon.advPos, mon.advVel, float64(t-mon.installedAt)*dt), R: mon.radius}
}

// held is the last install as its audience holds it: its epoch, the
// advertised query track and r_b.
func (mon *monitor) held() track {
	return track{epoch: mon.epoch, adv: line{mon.advPos, mon.advVel, mon.installedAt}, answerRadius: mon.answerRadius}
}

// installOf returns install e as its audience holds it, when the server
// still knows it: the last install or one in past.
func (mon *monitor) installOf(e uint32) (track, bool) {
	if !mon.installed || e == 0 {
		return track{}, false
	}
	if e == mon.epoch {
		return mon.held(), true
	}
	for _, f := range mon.past {
		if f.epoch == e {
			return f, true
		}
	}
	return track{}, false
}

// heldFrame returns the install the aware objects of an installed
// monitor hold at now: the last one, or the one before it while the last
// is still in flight. It reports false while a full install is in
// flight: the rows it rebuilt from probe replies are not the tracks the
// objects measure themselves against.
func (s *Server) heldFrame(mon *monitor, now model.Tick) (track, bool) {
	if now-mon.installedAt >= model.Tick(s.deps.LatencyTicks) {
		return mon.held(), true
	}
	return mon.past[0], mon.prevOK
}

// exitOffCircle files the crossings of r_b that members on their tracks
// make without a report (trackInside): every kNN member whose track lies
// outside the answer circle the objects hold leaves it, as place files a
// track reported outside it.
func (s *Server) exitOffCircle(mon *monitor, now model.Tick) {
	if mon.rng > 0 {
		return // a range member reports its own crossings
	}
	if f, ok := s.heldFrame(mon, now); ok && mon.tab.exitOffCircle(&f.adv, f.answerRadius, now) > 0 {
		mon.noteUnderfull()
	}
}

// noteInstall records the frame the aware objects hold until the install
// being sent reaches them; refresh says whether it is a refresh install,
// which only an installed monitor sends. It runs before the install state
// is overwritten.
func (mon *monitor) noteInstall(refresh bool) {
	copy(mon.past[1:], mon.past[:])
	mon.past[0] = mon.held() // epoch 0 before the first install
	mon.prevOK = refresh
}

// installCover is the circle an install of region circle(c, r) at now
// is broadcast over. Every object aware of the previous install lies in
// its frame (it drops itself on leaving) and must hear the new epoch, so
// the circle is widened to contain the frame from now until delivery.
// The frame's centre sweeps a segment meanwhile, whose farthest point
// from c is an endpoint. Computed before the install state is
// overwritten.
func (s *Server) installCover(mon *monitor, c geo.Point, r float64, now model.Tick) geo.Circle {
	cover := geo.Circle{Center: c, R: r}
	if !mon.installed {
		return cover
	}
	for _, t := range [2]model.Tick{now, now + model.Tick(s.deps.LatencyTicks)} {
		f := mon.frame(t, s.deps.DT)
		if need := c.Dist(f.Center) + f.R; need > cover.R {
			cover.R = need
		}
	}
	return cover
}

// regionSpeed is s_q, the speed of a monitoring region carried along
// the advertised track v, capped at MaxQuerySpeed: a focal client that
// advertises an absurd velocity cannot widen the slack past the bound.
func (s *Server) regionSpeed(v geo.Vector) float64 {
	return min(v.Len(), s.deps.MaxQuerySpeed)
}

// horizon is H_q for a monitor whose answer radius is rk and whose region
// moves along the advertised track v.
func (s *Server) horizon(rk float64, v geo.Vector) int {
	return reinstallHorizon(s.cfg.HorizonTicks, rk, s.deps.MaxObjectSpeed, s.regionSpeed(v), s.deps.DT)
}

// delta is the monitoring-region slack δ_q of that monitor. Relative to a
// region that follows v, an unaware object closes at no more than
// Vobj + s_q over the H_q ticks to the next install. Under latency L the
// aware objects hold a stale track for 2L ticks before a correcting
// install lands, and the query may leave it at Vqry + s_q meanwhile.
func (s *Server) delta(rk float64, v geo.Vector) float64 {
	sq := s.regionSpeed(v)
	return geo.SafeRadius(0, s.deps.MaxObjectSpeed, sq, float64(s.horizon(rk, v))*s.deps.DT) +
		(s.deps.MaxQuerySpeed+sq)*float64(2*s.deps.LatencyTicks)*s.deps.DT
}

// region is the monitoring radius of a monitor whose answer radius is
// rk: rk + δ_q, capped at MaxProbeRadius.
func (s *Server) region(mon *monitor, rk float64) float64 {
	return min(rk+s.delta(rk, mon.qvel), s.cfg.MaxProbeRadius)
}

// Tick runs the periodic server work: the re-ranking of every installed
// answer, horizon expiry, buffer checks, and probe initiation for
// monitors that need a reinstall.
func (s *Server) Tick(now model.Tick) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(obs.Now())
	cfg := s.cfg
	for _, q := range s.order {
		mon := s.monitors[q]
		// Members move between their reports, along the tracks they
		// reported: a member whose track left the answer circle leaves it
		// here, and the answer is re-ranked at this tick whether or not a
		// report arrived. Finalize sends it only if its membership changed.
		if mon.installed {
			s.exitOffCircle(mon, now)
			s.refreshAnswer(mon, now)
		}
		if mon.probing {
			continue
		}
		// H_q depends only on the answer radius and the advertised track,
		// so this is the horizon the install sized its slack for.
		if mon.installed && now-mon.installedAt >= model.Tick(s.horizon(mon.answerRadius, mon.advVel)) {
			mon.requestReinstall(causeHorizon)
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
			switch count, target := mon.tab.nInside, mon.k+cfg.AnswerSlack; {
			case count < mon.k+(cfg.AnswerSlack+1)/2:
				mon.requestReinstall(causeBufferLow)
			case count > 2*target:
				mon.requestReinstall(causeBufferHigh)
			}
		}
		if mon.reinstall == noReinstall {
			continue
		}
		// A refresh reinstall is possible whenever the server still knows
		// at least k objects inside the answer circle with fresh
		// positions: no probe, no mass replies — objects self-report side
		// changes relative to their previous monitor state. The full
		// expanding-ring probe remains for bootstrap and for recovery
		// when exits dropped the inside count below k. Range
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
// k+AnswerSlack buffer: r_b is the (k+m)-th member's distance, measured
// as the side rule measures it, so that member stays inside. Agents'
// side-change reports (same tick under zero latency) then resynchronize
// membership exactly.
func (s *Server) refreshInstall(mon *monitor, now model.Tick) {
	center := mon.qEst(now, s.deps.DT)
	rk := mon.rng
	if mon.rng == 0 {
		acc := mon.tab.rankedAt(center, now)
		if len(acc) < mon.k {
			// Positions for some inside ids are missing (cannot happen in
			// normal operation; defensive): fall back to a probe.
			s.startProbe(mon, now)
			return
		}
		rk = s.boundaryFromKnown(mon, acc)
	}
	rk = min(rk, s.cfg.MaxProbeRadius)
	radius := s.region(mon, rk)
	s.advertise(mon, now, center, rk, radius, true)

	// Objects strictly outside the new circle will leave and drop it;
	// prune candidates whose last known position is already outside so
	// stale annulus entries do not accumulate. Members on their tracks
	// take their side of the new answer circle silently, once they hold it.
	mon.tab.prune(center, radius)
	s.exitOffCircle(mon, now)
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

// startProbe begins a probe round sized from current knowledge.
func (s *Server) startProbe(mon *monitor, now model.Tick) {
	center := mon.qEst(now, s.deps.DT)
	radius := s.cfg.MinProbeRadius
	if mon.rng > 0 {
		// Range monitors need exactly one probe over the whole region.
		radius = s.region(mon, mon.rng)
	} else if mon.tab.nKnown >= mon.k {
		// If we already track at least k candidates, size the ring from
		// the k-th known distance plus the safety slack.
		known := mon.tab.appendKnown(mon.extraBuf[:0], center, now, true)
		mon.extraBuf = known
		model.SortNeighbors(known)
		radius = max(radius, s.region(mon, known[mon.k-1].Dist))
	}
	mon.lastProbeAt = now
	s.probe(mon, now, center, min(radius, s.cfg.MaxProbeRadius))
}

// probe broadcasts a new probe round over circle(center, radius) and
// clears the replies of the last one.
func (s *Server) probe(mon *monitor, now model.Tick, center geo.Point, radius float64) {
	mon.probing = true
	mon.probeSeq++
	mon.probeRadius = radius
	mon.probeDue = now + model.Tick(2*s.deps.LatencyTicks)
	mon.replies.Clear()
	ring := geo.Circle{Center: center, R: radius}
	s.deps.Side.Broadcast(ring, protocol.ProbeRequest{
		Query:  mon.query,
		Seq:    mon.probeSeq,
		Region: ring,
	})
	if s.deps.Trace != nil {
		s.emit(obs.Event{At: now, Type: obs.EvProbe, Query: mon.query,
			Seq: mon.probeSeq, Value: radius})
	}
}

// Finalize is the end of a tick's rounds, and the only place a changed
// answer leaves the server. Per query, in id order, it first completes a
// probe round whose replies are in (expand the ring or install the
// monitor), then downlinks the query's pending answer, so a query gets at
// most one answer message per round however many reports moved it. It
// reports whether any message was sent, so the driver flushes and calls
// again.
func (s *Server) Finalize(now model.Tick) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.track(obs.Now())
	sent := false
	for _, q := range s.order {
		mon := s.monitors[q]
		if mon.probing && now >= mon.probeDue && s.concludeProbe(mon, now) {
			sent = true
		}
		if s.sendAnswer(mon, now) {
			sent = true
		}
	}
	return sent
}

func (s *Server) concludeProbe(mon *monitor, now model.Tick) bool {
	center := mon.qEst(now, s.deps.DT)

	if mon.rng > 0 {
		// Range monitor: the probe covered the full monitoring region;
		// install directly with the fixed boundary.
		s.install(mon, now, center, mon.rng, s.region(mon, mon.rng))
		return true
	}

	maxR := s.cfg.MaxProbeRadius
	if mon.replies.Len() < mon.k && mon.probeRadius < maxR {
		// Not enough objects inside the ring: double it.
		s.probe(mon, now, center, min(2*mon.probeRadius, maxR))
		return true
	}

	ns := mon.replies.KNN(center, mon.k+s.cfg.AnswerSlack)
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
	rk = min(rk, maxR)
	radius := s.region(mon, rk)
	if radius > mon.probeRadius {
		// The safety region exceeds the probed area; one more ring makes
		// the candidate set complete. rk can only shrink with a larger
		// ring, so this converges.
		s.probe(mon, now, center, radius)
		return true
	}
	s.install(mon, now, center, rk, radius)
	return true
}

// install commits a probe result: rebuild the candidate and inside sets
// from the replies and advertise the new install. Each reply is placed by
// geo.Point.Dist, as its object places itself, so a kNN r_b, the (k+m)-th
// reply's distance, holds that reply. A reply carries no velocity, so
// every rebuilt member is at rest — the track each object resets its own
// row to on hearing a full install — from the tick the round was sent,
// which no reply predates.
func (s *Server) install(mon *monitor, now model.Tick, center geo.Point, rk, radius float64) {
	sentAt := mon.probeDue - model.Tick(2*s.deps.LatencyTicks)
	mon.probing = false
	mon.rebaseline = true // next answer message re-baselines delta clients
	s.advertise(mon, now, center, rk, radius, false)

	mon.tab.reset()
	mon.replies.Visit(func(id model.ObjectID, p geo.Point) bool {
		if d := p.Dist(center); d <= radius {
			mon.tab.add(id, line{pos: p, at: sentAt}, d <= rk)
		}
		return true
	})
	mon.tab.sortIDs()
	mon.replies.Clear()

	if mon.resyncProbe {
		// A periodic resync probe exists to heal lost-message divergence;
		// the focal client gets a full answer even if membership is
		// unchanged (sendAnswer would stay silent and leave a desynced
		// client desynced for another ResyncTicks period).
		mon.resyncProbe = false
		s.resyncAnswer(mon, now)
		return
	}
	s.refreshAnswer(mon, now)
}

// advertise makes circle(center, radius), answer radius rk, mon's next
// install at now, full or refresh, and broadcasts it over a region
// covering the new circle and the previous install's frame (so objects
// that fell out of the region hear about it and stop monitoring).
func (s *Server) advertise(mon *monitor, now model.Tick, center geo.Point, rk, radius float64, refresh bool) {
	cover := s.installCover(mon, center, radius, now)
	mon.noteInstall(refresh)
	mon.epoch++
	mon.installed = true
	mon.answerRadius, mon.radius = rk, radius
	mon.installedAt = now
	mon.advPos, mon.advVel = center, mon.qvel
	s.countInstall(mon)
	s.deps.Side.Broadcast(cover, protocol.MonitorInstall{
		Query:        mon.query,
		Epoch:        mon.epoch,
		Refresh:      refresh,
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
}

// computeAnswer re-evaluates the maintained answer at the query's
// current estimate — the leading ranks of the member table, filled from
// annulus candidates while recovering from an under-full circle — and
// stores it in mon.answer.
func (s *Server) computeAnswer(mon *monitor, now model.Tick) []model.Neighbor {
	center := mon.qEst(now, s.deps.DT)
	acc := mon.tab.rankedAt(center, now)
	// A range monitor's membership is its answer (positions, and hence
	// the reported distances, are only install-time fresh), cut at the
	// nearest maxK members, the most an answer's u16 count can name.
	if len(acc) > mon.tab.cut {
		acc = acc[:mon.tab.cut]
	} else if mon.rng == 0 && len(acc) < mon.k && mon.tab.nKnown > len(acc) {
		// Best-effort fill from annulus candidates (stale positions) while
		// a fallback probe is pending.
		extra := mon.tab.appendKnown(mon.extraBuf[:0], center, now, false)
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

// refreshAnswer recomputes the maintained answer and marks it pending.
// It sends nothing: reports are applied one at a time, so an answer
// between two of them may show a state no single instant had. Finalize
// (or an export) sends the last one.
func (s *Server) refreshAnswer(mon *monitor, now model.Tick) {
	s.computeAnswer(mon, now)
	mon.answerPending = true
}

// sendAnswer downlinks mon's pending answer when its membership differs
// from the last one sent (a delta in delta mode, a full update otherwise
// or when a rebaseline is due), and reports whether it sent. The answer
// is the one the last refreshAnswer computed: every table mutation is
// followed by one.
func (s *Server) sendAnswer(mon *monitor, now model.Tick) bool {
	if !mon.answerPending {
		return false
	}
	mon.answerPending = false
	acc := mon.answer

	// The common case is "nothing crossed rank k": the table then vouches
	// that the answer's ids are the sent ones. An annulus-filled answer
	// draws on rows outside the ranking and is always compared.
	if !mon.tab.dirty && (mon.rng > 0 || len(mon.tab.ranked) >= mon.k) {
		return false
	}
	added, removed := mon.tab.commitSent(acc, mon.addedBuf[:0], mon.removedBuf[:0])
	mon.addedBuf, mon.removedBuf = added, removed
	if len(added)+len(removed) == 0 {
		return false
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
		return true
	}
	s.sendFullAnswer(mon, acc, now)
	return true
}

// resyncAnswer unconditionally re-baselines the focal client with a full
// AnswerUpdate, regardless of whether membership changed since the last
// answer message. This is the server half of the answer-resync protocol:
// it runs on a client's explicit resync request, on a re-registration
// from the focal client (client restart), and when a periodic
// ResyncTicks probe concludes.
func (s *Server) resyncAnswer(mon *monitor, now model.Tick) {
	mon.answerPending = false
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
