package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// trackEpsilon absorbs float-summation noise when a client compares its
// true position against a dead-reckoned track: iterated per-tick motion
// and one-shot extrapolation differ by ~1e-12 m, which must not count as
// a deviation (it would re-trigger the track-correction path every tick).
// One micrometer is far below any physically meaningful threshold.
const trackEpsilon = 1e-6

// AgentDeps are the environment bindings of a client-side state machine:
// how it reads its own position (a local sensor — free), how it transmits
// (metered), and what time it is.
type AgentDeps struct {
	ID   model.ObjectID
	Side transport.ClientSide
	Now  func() model.Tick
	// Pos reads the client's own current position.
	Pos func() geo.Point
	// DT is the duration of one tick in seconds; it must be positive and
	// finite.
	DT float64
	// LatencyTicks is the known one-way delivery delay bound; the query
	// agent paces answer-resync retries by the round trip it implies. An
	// object agent does not read it and does not keep it.
	LatencyTicks int
	// Trace, when non-nil, receives an event per client-side protocol
	// action (report sent or suppressed, boundary crossed, resync
	// requested). nil disables tracing.
	Trace obs.Sink
}

// emitAgent marks the node/direction fields unset and records e; call
// sites guard with a nil check on the sink.
func emitAgent(tr obs.Sink, e obs.Event) {
	e.Node, e.Dir = -1, -1
	tr.Record(e)
}

// ObjectAgent is the logic running on one moving data object: it answers
// probes, keeps the monitors installed on it, and transmits only on the
// events the protocol defines.
//
// ObjectAgent is safe for concurrent use (the TCP client invokes
// HandleServerMessage from its receive loop while a ticker drives Tick).
type ObjectAgent struct {
	mu sync.Mutex
	// mons is the monitor table in ascending query id, which is also the
	// send order. Entries are values overwritten in place: hearing a
	// refresh of a held query repoints its row at the install's shared
	// track, and evaluating a tick reads the tracks and writes only rows.
	mons []agentMonitor
	// members has one row, ascending by query, for each monitor with inside
	// set, and is nil while there is none — which is most agents most of
	// the time, so the report state costs them one word.
	members *reportTable

	// There is one agent per simulated device, so it is sized to a heap
	// size class, 128 B: the bindings of AgentDeps an object reads, one
	// pointer to the values it shares with every agent built alike, the
	// object's last fix, and the holding flag.
	id    model.ObjectID
	fixAt int32 // the fix's tick; noFix before the first
	side  transport.ClientSide
	now   func() model.Tick
	pos   func() geo.Point
	c     *agentConsts
	// fixPos and fixVel are the object's last fix: its position at fixAt,
	// and the velocity measured from its position the tick before, zero
	// when it had none. Every track report carries fixVel.
	fixPos geo.Point
	fixVel geo.Vector
	// holding mirrors len(mons) > 0 so that Tick can pass over an agent
	// that holds no monitor — most of a large population — without taking
	// mu. It is written under mu, and only where the table turns from
	// empty to non-empty (insert) or back (shrink), never per message.
	holding atomic.Bool
}

// noFix is the fix tick of an agent that has observed nothing yet: no
// tick is one after it.
const noFix = math.MinInt32

// agentConsts are the values an object agent reads and never writes.
type agentConsts struct {
	dt      float64 // AgentDeps.DT
	theta   float64 // Config.ThetaInside
	horizon int32   // Config.MaxHorizonTicks
	trace   obs.Sink
}

// sharedConsts holds one record per distinct untraced agentConsts, so a
// population built from one Config and one tick length shares one record.
// A traced agent keeps its own: a sink need not be comparable (obs.Tee's
// is a slice, an obs.SinkFunc a function), so it cannot be a map key.
var sharedConsts struct {
	sync.Mutex
	m map[agentConsts]*agentConsts
}

// constsFor returns a record equal to c.
func constsFor(c agentConsts) *agentConsts {
	if c.trace != nil || c != c { // a NaN θ would never find its record
		return &c
	}
	sharedConsts.Lock()
	defer sharedConsts.Unlock()
	if p, ok := sharedConsts.m[c]; ok {
		return p
	}
	if sharedConsts.m == nil {
		sharedConsts.m = make(map[agentConsts]*agentConsts)
	}
	p := &c
	sharedConsts.m[c] = p
	return p
}

// NewObjectAgent returns an object-side agent.
func NewObjectAgent(cfg Config, deps AgentDeps) (*ObjectAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !validDT(deps.DT) {
		return nil, errBadDT
	}
	c := constsFor(agentConsts{
		dt:      deps.DT,
		theta:   cfg.ThetaInside,
		horizon: int32(min(cfg.MaxHorizonTicks(), math.MaxInt32)),
		trace:   deps.Trace,
	})
	return &ObjectAgent{id: deps.ID, fixAt: noFix, side: deps.Side, now: deps.Now, pos: deps.Pos, c: c}, nil
}

// observe makes p the object's fix at now and returns the fix's velocity:
// p's displacement from a fix one tick older, or zero after a longer gap.
// The first fix of a tick stands for the whole tick.
func (a *ObjectAgent) observe(p geo.Point, now model.Tick) geo.Vector {
	t := int32(now)
	switch a.fixAt {
	case t:
		return a.fixVel
	case t - 1:
		a.fixVel = p.Sub(a.fixPos).Scale(1 / a.c.dt)
	default:
		a.fixVel = geo.Vector{}
	}
	a.fixPos, a.fixAt = p, t
	return a.fixVel
}

// agentMonitor is one installed query monitor as the object holds it: the
// only per-object state, inside, next to the install's track, which every
// object of the region holds the same.
type agentMonitor struct {
	query  model.QueryID
	inside bool
	tr     *track
}

// track is what an install tells every object of its region: the epoch,
// the advertised query track and the two radii. A record is never written
// after internTrack publishes it, so any number of agents, on any
// goroutine, may hold it.
type track struct {
	epoch        uint32
	rangeMode    bool
	adv          line // the advertised query track
	answerRadius float64
	radius       float64
}

// processTracks is the slot of the agents whose medium keeps none (the
// sockets' clients, which live one fleet to a process).
var processTracks atomic.Value

// internTrack returns a published record equal to t: the last one
// published in the agent's slot when it matches, which it does for all
// but the first of an install's audience — fan-out delivers one broadcast
// to every recipient back to back — and a new one otherwise. The slot is
// the medium's (transport.SharingSide), one per simulation, so concurrent
// simulations never evict each other's record. NaN never matches, which
// costs only the allocation; +0 matches −0, which no reader of a track
// can tell apart.
func (a *ObjectAgent) internTrack(t track) *track {
	slot := &processTracks
	if s, ok := a.side.(transport.SharingSide); ok {
		slot = s.Shared()
	}
	if p, _ := slot.Load().(*track); p != nil && *p == t {
		return p
	}
	// A copy, not &t: taking t's address would move every call's argument
	// to the heap, hit or miss.
	p := new(track)
	*p = t
	slot.Store(p)
	return p
}

func validDT(dt float64) bool { return dt > 0 && !math.IsInf(dt, 1) }

// reportVel is the velocity a track report carries: the fix's, vel. A
// range monitor's member never reports its track again (the region is the
// answer), so it reports one at rest rather than one it does not keep.
func reportVel(vel geo.Vector, rangeMode bool) geo.Vector {
	if rangeMode {
		return geo.Vector{}
	}
	return vel
}

// memberState is what the server last heard from the object about a query
// whose answer circle it is inside: the track it last reported, the line
// the server's member row holds. Nothing reads it for any other monitor,
// so it lives in its own table, a row exactly while inside is set. The
// row names no query: the j-th row belongs to the j-th monitor with
// inside set, as both tables ascend by query.
//
// The line is the object's fix when the monitor last transmitted
// anything, with the fix's velocity, or at rest where the server rebuilt
// the row from a probe reply. Its at is that tick: inside objects
// re-affirm membership once per horizon if silent, which heals a
// membership report lost (or outrun by epochs) in flight.
type memberState struct {
	line
}

// reportTable is the member rows, the first held inline: an object inside
// one answer circle, by far the common case, pays one 64 B record for its
// report state.
type reportTable struct {
	first memberState
	more  []memberState
}

// row returns the table's j-th row.
func (t *reportTable) row(j int) *memberState {
	if j == 0 {
		return &t.first
	}
	return &t.more[j-1]
}

// MonitorCount reports how many query monitors this agent currently
// holds.
func (a *ObjectAgent) MonitorCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.mons)
}

// find returns q's position in the table, or where it would be inserted.
func (a *ObjectAgent) find(q model.QueryID) (int, bool) {
	lo, hi := 0, len(a.mons)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.mons[mid].query < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.mons) && a.mons[lo].query == q
}

// growStep is how many entries a full table of n monitors grows by: a
// quarter, not append's doubling, which across twenty thousand agents of a
// few monitors each was measured as a fifth more heap than the map this
// table replaces.
func growStep(n int) int { return max(2, n/4) }

// insert places mon at index i; the first monitor raises the holding flag.
func (a *ObjectAgent) insert(i int, mon agentMonitor) {
	n := len(a.mons)
	if n == cap(a.mons) {
		a.mons = append(make([]agentMonitor, 0, n+growStep(n)), a.mons...)
	}
	a.mons = slices.Insert(a.mons, i, mon)
	if n == 0 {
		a.holding.Store(true)
	}
}

// shrink keeps the first n entries, and reallocates the table once its
// slack exceeds two growth steps, so an agent that crossed a hotspot does
// not keep its peak footprint and one at a region's edge does not
// reallocate on every crossing. Emptying the table lowers the holding flag.
func (a *ObjectAgent) shrink(n int) {
	a.mons = a.mons[:n]
	switch {
	case n == 0:
		a.mons = nil
		a.holding.Store(false)
	case cap(a.mons)-n > 2*growStep(n):
		a.mons = slices.Clone(a.mons)
	}
}

// memberIndex returns the member-table position of the monitor at index i
// of the monitor table, or where its row would be inserted: the number of
// inside monitors before it.
func (a *ObjectAgent) memberIndex(i int) int {
	n := 0
	for _, mon := range a.mons[:i] {
		if mon.inside {
			n++
		}
	}
	return n
}

// addMember inserts row at index j of the member table.
func (a *ObjectAgent) addMember(j int, row memberState) {
	t := a.members
	switch {
	case t == nil:
		a.members = &reportTable{first: row}
	case j == 0:
		t.more = slices.Insert(t.more, 0, t.first)
		t.first = row
	default:
		t.more = slices.Insert(t.more, j-1, row)
	}
}

// dropMember removes the member table's row at index j; the table goes
// with its last row.
func (a *ObjectAgent) dropMember(j int) {
	t := a.members
	switch {
	case len(t.more) == 0:
		a.members = nil
	case j == 0:
		t.first = t.more[0]
		t.more = slices.Delete(t.more, 0, 1)
	default:
		t.more = slices.Delete(t.more, j-1, j)
	}
}

// HandleServerMessage implements transport.ClientHandler.
func (a *ObjectAgent) HandleServerMessage(msg protocol.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch v := msg.(type) {
	case protocol.ProbeRequest:
		if p := a.pos(); v.Region.Contains(p) {
			a.side.Uplink(protocol.ProbeReply{Query: v.Query, Seq: v.Seq, Object: a.id, Pos: p})
			if tr := a.c.trace; tr != nil {
				emitAgent(tr, obs.Event{At: a.now(), Type: obs.EvReportSent,
					Query: v.Query, Object: a.id, Kind: protocol.KindProbeReply, Seq: v.Seq})
			}
		}
	case protocol.MonitorInstall:
		a.handleInstall(v)
	case protocol.MonitorCancel:
		if i, ok := a.find(v.Query); ok && v.Epoch >= a.mons[i].tr.epoch {
			a.drop(i)
		}
	}
}

func (a *ObjectAgent) handleInstall(v protocol.MonitorInstall) {
	i, had := a.find(v.Query)
	if had && v.Epoch < a.mons[i].tr.epoch {
		return // stale rebroadcast
	}
	// was is our member state under the monitor this install replaces:
	// non-nil exactly when we held the query inside its answer circle.
	var was *memberState
	mi := a.memberIndex(i)
	if had && a.mons[i].inside {
		was = a.members.row(mi)
	}
	p := a.pos()
	now := a.now()
	fixVel := a.observe(p, now)
	tr := track{
		epoch:        v.Epoch,
		adv:          line{v.QueryPos, v.QueryVel, v.At},
		answerRadius: v.AnswerRadius,
		radius:       v.Radius,
		rangeMode:    v.RangeMode,
	}
	c := circleAt(&tr.adv, tr.answerRadius, now, a.c.dt)
	d := p.Dist(c.center)
	side := d <= tr.answerRadius
	reported := false
	// vel is the track's velocity once this install is handled: what an
	// Enter below sent, else zero. A full install's row is (p, 0) on both
	// sides: the server rebuilt it from our probe reply, which carries no
	// velocity.
	var vel geo.Vector
	if v.Refresh {
		// Report only the *change* of side relative to our previous
		// state; the server's inside set was carried over, so this keeps
		// it exact by induction. A refresh that skips an epoch says one
		// was lost on the way: the server has since judged our side
		// against a circle we never held, so we state it outright.
		missed := had && v.Epoch > a.mons[i].tr.epoch+1
		onTrack := false
		if was != nil && !v.RangeMode && !missed {
			drift := p.Dist(was.posAt(now, a.c.dt))
			side, onTrack = a.trackSide(v.Query, was, &c, drift, now, d <= tr.radius, side)
		}
		// An inside member that has been silent for a full horizon
		// re-affirms its membership — idempotent at the server, and it
		// heals an enter-report that was lost or outrun by reinstall
		// epochs in flight.
		affirm := side && was != nil && (missed || now-was.at >= model.Tick(a.c.horizon))
		switch {
		case v.RangeMode && !side && (was != nil || missed):
			a.exit(v.Query, v.Epoch, p, now, d) // a range member keeps no track
			reported = true
		case side && (was == nil || affirm), !side && (was != nil || missed) && !onTrack:
			// An Enter, a member's re-affirmation or a kNN object's way
			// out: each reports the track we are on now, which decides our
			// side as it does the server's. So a member affirming from its
			// old track's side while its own position is beyond r_b leaves.
			vel = reportVel(fixVel, v.RangeMode)
			side = d <= tr.answerRadius
			a.sendTrack(v.Query, v.Epoch, line{p, vel, now}, side, d)
			reported = true
		}
	}
	if d > tr.radius {
		// Outside the region (cell-granular broadcast covers more): the
		// side we held is settled above, and the query is forgotten.
		if had {
			a.drop(i)
		}
		return
	}
	// The member row must hold the track the *server* knows. After a
	// full probe the server rebuilt its state from our reply at the
	// current position, and any report above carried the current
	// position too; but a silent refresh carried nothing, so the
	// server's copy is still our previous track — keep measuring against
	// it or a drift accumulated before this install would never be
	// transmitted. (Silent and inside implies was: a refresh that finds
	// a non-member inside reports the Enter.)
	switch {
	case !side:
		if was != nil {
			a.dropMember(mi)
		}
	case was == nil:
		a.addMember(mi, memberState{line{p, vel, now}})
	case reported || !v.Refresh:
		was.line = line{p, vel, now}
	}
	mon := agentMonitor{query: v.Query, inside: side, tr: a.internTrack(tr)}
	if had {
		a.mons[i] = mon
	} else {
		a.insert(i, mon)
	}
}

// trackSide gives a kNN member on the track ms it last reported (drift
// within θ) its side of c by that track, as the server places it, and
// traces a crossing out, which is the server's to file. It returns side
// unchanged and onTrack false off the track, or out of the region (held
// false) on a track still inside: those members report a new track.
func (a *ObjectAgent) trackSide(q model.QueryID, ms *memberState, c *circle, drift float64, now model.Tick, held, side bool) (bool, bool) {
	if drift > a.c.theta+trackEpsilon {
		return side, false
	}
	in := c.holds(&ms.line)
	if !held && in {
		return side, false
	}
	if tr := a.c.trace; !in && tr != nil {
		emitAgent(tr, obs.Event{At: now, Type: obs.EvReportSuppressed,
			Query: q, Object: a.id, Kind: protocol.KindExitReport, Value: drift})
	}
	return in, true
}

// sendTrack uplinks track l for query q: an EnterReport (a boundary
// crossed inward, traced with the distance v) if enter, else a MoveReport
// (traced with v, the drift or distance).
func (a *ObjectAgent) sendTrack(q model.QueryID, epoch uint32, l line, enter bool, v float64) {
	r := protocol.MemberReport{Query: q, Epoch: epoch, Object: a.id, Pos: l.pos, At: l.at}
	ev := obs.Event{At: l.at, Type: obs.EvReportSent, Query: q, Object: a.id, Kind: protocol.KindMoveReport, Value: v}
	if enter {
		a.side.Uplink(protocol.EnterReport{MemberReport: r, Vel: l.vel})
		ev.Type, ev.Kind = obs.EvBoundaryCrossed, protocol.KindEnterReport
	} else {
		a.side.Uplink(protocol.MoveReport{MemberReport: r, Vel: l.vel})
	}
	if tr := a.c.trace; tr != nil {
		emitAgent(tr, ev)
	}
}

// exit uplinks an ExitReport for range query q at p, d out.
func (a *ObjectAgent) exit(q model.QueryID, epoch uint32, p geo.Point, now model.Tick, d float64) {
	a.side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
		Query: q, Epoch: epoch, Object: a.id, Pos: p, At: now,
	}})
	if tr := a.c.trace; tr != nil {
		emitAgent(tr, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
			Query: q, Object: a.id, Kind: protocol.KindExitReport, Value: d})
	}
}

// drop removes the monitor at index i, and its member row if it has one.
func (a *ObjectAgent) drop(i int) {
	if a.mons[i].inside {
		a.dropMember(a.memberIndex(i))
	}
	copy(a.mons[i:], a.mons[i+1:])
	a.shrink(len(a.mons) - 1)
}

// Tick takes the object's fix and evaluates every installed monitor
// against it, transmitting the events the protocol defines. An agent that
// holds no monitor returns after one load of the holding flag. A stale
// read is safe: false while an install is being handled orders this tick
// before the install, as losing the race for mu would, and true while the
// last monitor drops takes mu and finds the table empty.
func (a *ObjectAgent) Tick(now model.Tick) {
	if !a.holding.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.mons) == 0 {
		return
	}
	p := a.pos()
	vel := a.observe(p, now)
	dt := a.c.dt
	kept := 0 // monitors still held are compacted to the front in place
	mi := 0   // the member row of the next inside monitor: both tables ascend by query
	for i := range a.mons {
		mon := &a.mons[i]
		q, tr := mon.query, mon.tr
		c := circleAt(&tr.adv, tr.answerRadius, now, dt)
		d := p.Dist(c.center)
		held := d <= tr.radius
		side := d <= tr.answerRadius
		switch {
		case mon.inside && !tr.rangeMode:
			// The server dead-reckons the track we last reported; it needs
			// a new one only once we leave it by more than θ, or leave the
			// region while it is still inside. Whichever track it holds
			// then decides our side, on both ends.
			ms := a.members.row(mi)
			drift := p.Dist(ms.posAt(now, dt))
			onTrack := false
			if side, onTrack = a.trackSide(q, ms, &c, drift, now, held, side); !onTrack {
				ms.line = line{p, vel, now}
				a.sendTrack(q, tr.epoch, ms.line, false, drift)
			} else if side && a.c.trace != nil {
				// The threshold just saved an uplink: the server's track is
				// still close enough.
				emitAgent(a.c.trace, obs.Event{At: now, Type: obs.EvReportSuppressed,
					Query: q, Object: a.id, Kind: protocol.KindMoveReport, Value: drift})
			}
		case side && !mon.inside:
			l := line{p, reportVel(vel, tr.rangeMode), now}
			a.sendTrack(q, tr.epoch, l, true, d)
			mon.inside = true
			a.addMember(mi, memberState{l})
		case !side && mon.inside:
			a.exit(q, tr.epoch, p, now, d) // a range member
		}
		if mon.inside && !side {
			mon.inside = false
			a.dropMember(mi)
		}
		if !held {
			// Out of the region, and so outside the answer circle: the
			// monitor is dropped. An annulus object drops it silently; its
			// stale candidate entry is pruned at the next refresh.
			continue
		}
		if mon.inside {
			mi++
		}
		if kept != i {
			a.mons[kept] = *mon
		}
		kept++
	}
	if kept != len(a.mons) {
		a.shrink(kept)
	}
}

// QueryAgentDeps extends the client bindings with the focal device's
// velocity sensor.
type QueryAgentDeps struct {
	AgentDeps
	// Vel reads the client's own current velocity.
	Vel func() geo.Vector
}

// QueryAgent is the logic on the query's focal device: it registers the
// query, corrects the server's dead-reckoned track when it deviates, and
// receives answer updates.
//
// QueryAgent is safe for concurrent use.
type QueryAgent struct {
	spec model.QuerySpec
	deps QueryAgentDeps

	mu         sync.Mutex
	registered bool
	lastPos    geo.Point
	lastVel    geo.Vector
	lastAt     model.Tick
	answer     model.Answer
	// Answer-stream sequencing state: the last applied sequence number,
	// whether any answer has been applied at all, and the pending
	// answer-resync request (if one is in flight, when it was sent).
	answerSeq     uint32
	haveAnswer    bool
	resyncPending bool
	resyncSentAt  model.Tick
	// trackStale is set when a full AnswerUpdate echoes a server-side
	// query-position estimate that deviates from the advertised track:
	// proof that a QueryMove uplink was lost. The next Tick re-advertises
	// the track unconditionally.
	trackStale bool
	// OnAnswer, when set, is called (under the agent lock) with each
	// received answer update.
	OnAnswer func(model.Answer)
}

// NewQueryAgent returns a focal-client agent for the given query spec.
func NewQueryAgent(cfg Config, spec model.QuerySpec, deps QueryAgentDeps) (*QueryAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !validDT(deps.DT) {
		return nil, errBadDT
	}
	return &QueryAgent{spec: spec, deps: deps}, nil
}

// Tick registers the query on first call, then corrects the advertised
// track whenever the true position leaves it.
func (qc *QueryAgent) Tick(now model.Tick) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	pos, vel := qc.deps.Pos(), qc.deps.Vel()
	if !qc.registered {
		qc.deps.Side.Uplink(protocol.QueryRegister{
			Query: qc.spec.ID,
			K:     uint32(qc.spec.K),
			Range: qc.spec.Range,
			Pos:   pos,
			Vel:   vel,
			At:    now,
		})
		qc.registered = true
		qc.lastPos, qc.lastVel, qc.lastAt = pos, vel, now
		return
	}
	expect := geo.DeadReckon(qc.lastPos, qc.lastVel, float64(now-qc.lastAt)*qc.deps.DT)
	if pos.Dist(expect) > trackEpsilon || qc.trackStale {
		qc.deps.Side.Uplink(protocol.QueryMove{
			Query: qc.spec.ID,
			Pos:   pos,
			Vel:   vel,
			At:    now,
		})
		qc.lastPos, qc.lastVel, qc.lastAt = pos, vel, now
		qc.trackStale = false
	}
	// A resync request travels the same lossy medium as the messages it
	// repairs; retry once per round trip until a full update lands.
	if qc.resyncPending && now-qc.resyncSentAt >= qc.resyncRetryGap() {
		qc.sendResync(now)
	}
}

// resyncRetryGap is how long a resync request may stay unanswered before
// it is retried: one full round trip, and at least one tick.
func (qc *QueryAgent) resyncRetryGap() model.Tick {
	gap := model.Tick(2*qc.deps.LatencyTicks + 1)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// sendResync uplinks an answer-resync request. Caller holds the lock.
func (qc *QueryAgent) sendResync(now model.Tick) {
	qc.deps.Side.Uplink(protocol.AnswerResync{Query: qc.spec.ID})
	qc.resyncPending = true
	qc.resyncSentAt = now
	if qc.deps.Trace != nil {
		emitAgent(qc.deps.Trace, obs.Event{At: now, Type: obs.EvResyncRequested,
			Query: qc.spec.ID, Seq: qc.answerSeq})
	}
}

// Deregister removes the continuous query from the server and discards
// the local answer state, so a later re-registration of the same spec
// cannot report the previous registration's neighbors.
func (qc *QueryAgent) Deregister() {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.deps.Side.Uplink(protocol.QueryDeregister{Query: qc.spec.ID})
	qc.forget()
}

// Reattach readies the agent for a connection that replaced a dead one:
// the server purged the query with the old connection, or lost it in a
// restart. The next Tick registers the query again, and the answer state,
// sequenced by a registration that is gone, is discarded.
func (qc *QueryAgent) Reattach() {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.forget()
}

// forget drops the registration and the answer state. Caller holds the
// lock.
func (qc *QueryAgent) forget() {
	qc.registered = false
	qc.answer = model.Answer{}
	qc.answerSeq = 0
	qc.haveAnswer = false
	qc.resyncPending = false
}

// seqNewer reports whether a is newer than b in wrapping 32-bit sequence
// space (serial-number arithmetic).
func seqNewer(a, b uint32) bool { return a != b && a-b < 1<<31 }

// checkTrackEcho compares the server's echoed query-position estimate
// against the advertised track. A deviation beyond float noise
// (trackEpsilon) proves the server missed a QueryMove: the client updated its
// baseline on send, so a lost uplink would otherwise leave the two sides
// silently diverged until the next natural velocity change. Answers
// generated before the latest advertisement could have reached the
// server are skipped — those were legitimately computed against the
// previous track. Caller holds the lock.
func (qc *QueryAgent) checkTrackEcho(v protocol.AnswerUpdate) {
	if !qc.registered || v.At < qc.lastAt+model.Tick(qc.deps.LatencyTicks) {
		return
	}
	expect := geo.DeadReckon(qc.lastPos, qc.lastVel, float64(v.At-qc.lastAt)*qc.deps.DT)
	if v.QPos.Dist(expect) > trackEpsilon {
		qc.trackStale = true
	}
}

// HandleServerMessage implements transport.ClientHandler.
func (qc *QueryAgent) HandleServerMessage(msg protocol.Message) {
	switch v := msg.(type) {
	case protocol.AnswerUpdate:
		if v.Query != qc.spec.ID {
			return
		}
		qc.mu.Lock()
		defer qc.mu.Unlock()
		qc.checkTrackEcho(v)
		// A full update is self-contained: accept any sequence newer than
		// the last applied one, ignore stale or duplicated copies.
		if qc.haveAnswer && !seqNewer(v.Seq, qc.answerSeq) {
			return
		}
		// Copy: the decoded slice may be shared with transport buffers or
		// later mutated by the caller; agent state must own its storage.
		ns := make([]model.Neighbor, len(v.Neighbors))
		copy(ns, v.Neighbors)
		qc.answer = model.Answer{Query: v.Query, At: v.At, Neighbors: ns}
		qc.answerSeq = v.Seq
		qc.haveAnswer = true
		qc.resyncPending = false
		if qc.OnAnswer != nil {
			qc.OnAnswer(qc.answer)
		}
	case protocol.AnswerDelta:
		if v.Query != qc.spec.ID {
			return
		}
		qc.mu.Lock()
		defer qc.mu.Unlock()
		// A delta applies only to the state it was computed against: its
		// sequence must be exactly one past the last applied one. Anything
		// older is a duplicate (ignored); anything else is a gap — a lost
		// or reordered answer message — and the local answer can no longer
		// be trusted, so ask the server for a full re-baseline instead of
		// silently diverging until the next ResyncTicks probe.
		if qc.haveAnswer && !seqNewer(v.Seq, qc.answerSeq) {
			return
		}
		if !qc.haveAnswer || v.Seq != qc.answerSeq+1 {
			if !qc.resyncPending {
				qc.sendResync(qc.deps.Now())
			}
			return
		}
		drop := make(map[model.ObjectID]bool, len(v.Removed)+len(v.Added))
		for _, id := range v.Removed {
			drop[id] = true
		}
		// An added id that is somehow already present is replaced.
		for _, n := range v.Added {
			drop[n.ID] = true
		}
		ns := make([]model.Neighbor, 0, len(qc.answer.Neighbors)+len(v.Added))
		for _, n := range qc.answer.Neighbors {
			if !drop[n.ID] {
				ns = append(ns, n)
			}
		}
		ns = append(ns, v.Added...)
		model.SortNeighbors(ns)
		qc.answer = model.Answer{Query: v.Query, At: v.At, Neighbors: ns}
		qc.answerSeq = v.Seq
		if qc.OnAnswer != nil {
			qc.OnAnswer(qc.answer)
		}
	}
}

// Answer returns the latest answer received from the server. The
// neighbor slice is a copy; mutating it cannot corrupt agent state.
func (qc *QueryAgent) Answer() model.Answer {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	out := qc.answer
	if len(out.Neighbors) > 0 {
		ns := make([]model.Neighbor, len(out.Neighbors))
		copy(ns, out.Neighbors)
		out.Neighbors = ns
	}
	return out
}
