package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

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
	// DT is the duration of one tick in seconds.
	DT float64
	// LatencyTicks is the known one-way delivery delay bound; the query
	// agent paces answer-resync retries by the round trip it implies.
	LatencyTicks int
	// Trace, when non-nil, receives an event per client-side protocol
	// action (report sent or suppressed, boundary crossed, resync
	// requested). nil disables tracing.
	Trace obs.Sink
}

// emitAgent marks the node/direction fields unset and records e; call
// sites guard with deps.Trace != nil.
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
	// refresh of a held query and evaluating a tick touch no other memory.
	mons []agentMonitor
	// members has one row, ascending by query, for each monitor with inside
	// set, and is nil while there is none — which is most agents most of
	// the time, so the report state costs them one word.
	members *[]memberState

	// There is one agent per simulated device, so it is sized to a heap
	// size class, 128 B: deps whole (LatencyTicks, which only the query
	// agent reads, fits) and the two Config values an object reads.
	deps    AgentDeps
	theta   float64    // Config.ThetaInside
	horizon model.Tick // Config.HorizonTicks
}

// NewObjectAgent returns an object-side agent.
func NewObjectAgent(cfg Config, deps AgentDeps) (*ObjectAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ObjectAgent{deps: deps, theta: cfg.ThetaInside, horizon: model.Tick(cfg.HorizonTicks)}, nil
}

// agentMonitor is the object's local copy of one installed query monitor:
// what every tick's evaluation reads, and nothing else.
type agentMonitor struct {
	query        model.QueryID
	epoch        uint32
	qpos         geo.Point
	qvel         geo.Vector
	at           model.Tick
	answerRadius float64
	radius       float64
	// Influence frontier advertised with the install (zero: none — use
	// the θ drift rule). The object's movement threshold is derived per
	// tick as its slack to the frontier, |d(lastReport) − frontier|, so
	// it needs no storage and re-anchors automatically on every report.
	frontier  float64
	rangeMode bool
	inside    bool
}

// memberState is what the server last heard from the object about a query
// whose answer circle it is inside. Nothing reads it for any other monitor,
// so it lives in its own table, a row exactly while inside is set.
type memberState struct {
	query model.QueryID
	// lastSentAt is when this monitor last transmitted anything; inside
	// objects re-affirm membership once per horizon if silent, which
	// heals a membership report lost (or outrun by epochs) in flight.
	lastSentAt model.Tick
	lastReport geo.Point
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

// insert places mon at index i.
func (a *ObjectAgent) insert(i int, mon agentMonitor) {
	if n := len(a.mons); n == cap(a.mons) {
		a.mons = append(make([]agentMonitor, 0, n+growStep(n)), a.mons...)
	}
	a.mons = slices.Insert(a.mons, i, mon)
}

// shrink keeps the first n entries, and reallocates the table once its
// slack exceeds two growth steps, so an agent that crossed a hotspot does
// not keep its peak footprint and one at a region's edge does not
// reallocate on every crossing.
func (a *ObjectAgent) shrink(n int) {
	a.mons = a.mons[:n]
	switch {
	case n == 0:
		a.mons = nil
	case cap(a.mons)-n > 2*growStep(n):
		a.mons = slices.Clone(a.mons)
	}
}

// memberIndex returns the position of q's row in the member table, or
// where it would be inserted.
func (a *ObjectAgent) memberIndex(q model.QueryID) int {
	if a.members == nil {
		return 0
	}
	i, _ := slices.BinarySearchFunc(*a.members, q, func(m memberState, q model.QueryID) int {
		return cmp.Compare(m.query, q)
	})
	return i
}

// addMember inserts row at index i of the member table.
func (a *ObjectAgent) addMember(i int, row memberState) {
	if a.members == nil {
		a.members = new([]memberState)
	}
	*a.members = slices.Insert(*a.members, i, row)
}

// dropMember removes the member table's row at index i; the table goes
// with its last row.
func (a *ObjectAgent) dropMember(i int) {
	if *a.members = slices.Delete(*a.members, i, i+1); len(*a.members) == 0 {
		a.members = nil
	}
}

// HandleServerMessage implements transport.ClientHandler.
func (a *ObjectAgent) HandleServerMessage(msg protocol.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch v := msg.(type) {
	case protocol.ProbeRequest:
		if p := a.deps.Pos(); v.Region.Contains(p) {
			now := a.deps.Now()
			a.deps.Side.Uplink(protocol.ProbeReply{
				Query: v.Query, Seq: v.Seq, Object: a.deps.ID, Pos: p,
				At: now,
			})
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvReportSent,
					Query: v.Query, Object: a.deps.ID, Kind: protocol.KindProbeReply, Seq: v.Seq})
			}
		}
	case protocol.MonitorInstall:
		a.handleInstall(v, 0)
	case protocol.InfluenceInstall:
		a.handleInstall(v.Install, v.Frontier)
	case protocol.MonitorCancel:
		if i, ok := a.find(v.Query); ok && v.Epoch >= a.mons[i].epoch {
			a.drop(i)
		}
	}
}

func (a *ObjectAgent) handleInstall(v protocol.MonitorInstall, frontier float64) {
	i, had := a.find(v.Query)
	if had && v.Epoch < a.mons[i].epoch {
		return // stale rebroadcast
	}
	// was is our member state under the monitor this install replaces:
	// non-nil exactly when we held the query inside its answer circle.
	var was *memberState
	mi := a.memberIndex(v.Query)
	if had && a.mons[i].inside {
		was = &(*a.members)[mi]
	}
	p := a.deps.Pos()
	d := p.Dist(v.QueryPos)
	now := a.deps.Now()
	if d > v.Radius {
		// The install reached us (cell-granular broadcast covers more
		// than the region) but we are outside the monitoring region. On
		// a refresh install the server kept its inside set, so if it
		// believed we were an answer member we must correct it before
		// forgetting the query.
		if v.Refresh && was != nil {
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
					Query: v.Query, Object: a.deps.ID, Kind: protocol.KindExitReport, Value: d})
			}
		}
		if had {
			a.drop(i)
		}
		return
	}
	side := d <= v.AnswerRadius
	reported := false
	if v.Refresh {
		// Report only the *change* of side relative to our previous
		// state; the server's inside set was carried over, so this keeps
		// it exact by induction. An inside member that has been silent
		// for a full horizon re-affirms its membership — idempotent at
		// the server, and it heals an enter-report that was lost or
		// outrun by reinstall epochs in flight.
		affirm := side && was != nil && now-was.lastSentAt >= a.horizon
		switch {
		case side && (was == nil || affirm):
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			reported = true
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
					Query: v.Query, Object: a.deps.ID, Kind: protocol.KindEnterReport, Value: d})
			}
		case !side && was != nil:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			reported = true
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
					Query: v.Query, Object: a.deps.ID, Kind: protocol.KindExitReport, Value: d})
			}
		}
		// Influence correction: a refresh advertising a frontier re-tests
		// the server's (possibly drift-stale) copy of our position against
		// it. If our true side of F disagrees with what the server's copy
		// implies, or our accumulated drift exceeds the slack to F, the
		// server's ranking around the new frontier cannot be trusted —
		// correct it with a fresh MoveReport. Freshly-reported objects
		// (drift 0, consistent side) stay silent, so each correction wave
		// strictly shrinks the stale set and the tick converges.
		if frontier > 0 && !v.RangeMode && side && was != nil && !reported {
			dSrv := was.lastReport.Dist(v.QueryPos)
			drift := p.Dist(was.lastReport)
			if (d <= frontier) != (dSrv <= frontier) || drift > math.Abs(dSrv-frontier) {
				a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: v.Query, Epoch: v.Epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
				reported = true
				if a.deps.Trace != nil {
					emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvReportSent,
						Query: v.Query, Object: a.deps.ID, Kind: protocol.KindMoveReport, Value: drift})
				}
			}
		}
	}
	// lastReport must track what the *server* knows about us. After a
	// full probe the server rebuilt its state from our reply at the
	// current position, and any report above carried the current
	// position too; but a silent refresh carried nothing, so the
	// server's copy is still our previous report — keep baselining
	// against it or a drift accumulated before this install would never
	// be transmitted. (Silent and inside implies was: a refresh that finds
	// a non-member inside reports the Enter.)
	switch {
	case !side:
		if was != nil {
			a.dropMember(mi)
		}
	case was == nil:
		a.addMember(mi, memberState{query: v.Query, lastSentAt: now, lastReport: p})
	case reported || !v.Refresh:
		was.lastSentAt, was.lastReport = now, p
	}
	mon := agentMonitor{
		query:        v.Query,
		epoch:        v.Epoch,
		qpos:         v.QueryPos,
		qvel:         v.QueryVel,
		at:           v.At,
		answerRadius: v.AnswerRadius,
		radius:       v.Radius,
		frontier:     frontier,
		rangeMode:    v.RangeMode,
		inside:       side,
	}
	if had {
		a.mons[i] = mon
	} else {
		a.insert(i, mon)
	}
}

// drop removes the monitor at index i, and its member row if it has one.
func (a *ObjectAgent) drop(i int) {
	if a.mons[i].inside {
		a.dropMember(a.memberIndex(a.mons[i].query))
	}
	copy(a.mons[i:], a.mons[i+1:])
	a.shrink(len(a.mons) - 1)
}

// Tick evaluates every installed monitor against the object's current
// position and transmits crossing/leave/move events.
func (a *ObjectAgent) Tick(now model.Tick) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.mons) == 0 {
		return
	}
	p := a.deps.Pos()
	dt := a.deps.DT
	kept := 0 // monitors still held are compacted to the front in place
	mi := 0   // the member row of the next inside monitor: both tables ascend by query
	for i := range a.mons {
		mon := &a.mons[i]
		q := mon.query
		qhat := geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.at)*dt)
		d := p.Dist(qhat)
		if d > mon.radius {
			// Only answer-circle members must announce leaving — the
			// server tracks membership through them. Annulus objects
			// drop silently; their stale candidate entries are pruned at
			// the next refresh.
			if mon.inside {
				a.deps.Side.Uplink(protocol.LeaveReport{MemberReport: protocol.MemberReport{
					Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
				a.dropMember(mi)
				if a.deps.Trace != nil {
					emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvReportSent,
						Query: q, Object: a.deps.ID, Kind: protocol.KindLeaveReport, Value: d})
				}
			}
			continue
		}
		side := d <= mon.answerRadius
		switch {
		case side && !mon.inside:
			a.deps.Side.Uplink(protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			mon.inside = true
			a.addMember(mi, memberState{query: q, lastSentAt: now, lastReport: p})
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
					Query: q, Object: a.deps.ID, Kind: protocol.KindEnterReport, Value: d})
			}
		case !side && mon.inside:
			a.deps.Side.Uplink(protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
			}})
			mon.inside = false
			a.dropMember(mi)
			if a.deps.Trace != nil {
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvBoundaryCrossed,
					Query: q, Object: a.deps.ID, Kind: protocol.KindExitReport, Value: d})
			}
		case side && !mon.rangeMode:
			ms := &(*a.members)[mi]
			drift := p.Dist(ms.lastReport)
			move := false
			if mon.frontier > 0 {
				// Influence rule: the server only needs to know our side of
				// the frontier F. While the drift stays under our slack to F
				// (|d(lastReport, q̂) − F|) the triangle inequality proves we
				// cannot have crossed it, so the report is suppressed; the
				// side test catches the boundary exactly.
				dSrv := ms.lastReport.Dist(qhat)
				move = (d <= mon.frontier) != (dSrv <= mon.frontier) ||
					drift > math.Abs(dSrv-mon.frontier)
			} else {
				move = drift > a.theta
			}
			if move {
				a.deps.Side.Uplink(protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: q, Epoch: mon.epoch, Object: a.deps.ID, Pos: p, At: now,
				}})
				ms.lastSentAt, ms.lastReport = now, p
				if a.deps.Trace != nil {
					emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvReportSent,
						Query: q, Object: a.deps.ID, Kind: protocol.KindMoveReport, Value: drift})
				}
			} else if a.deps.Trace != nil {
				// The threshold just saved an uplink: the server's copy is
				// still close enough (θ rule) or provably on the same side
				// of the frontier (influence rule).
				emitAgent(a.deps.Trace, obs.Event{At: now, Type: obs.EvReportSuppressed,
					Query: q, Object: a.deps.ID, Kind: protocol.KindMoveReport, Value: drift})
			}
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
	cfg  Config
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
	return &QueryAgent{cfg: cfg, spec: spec, deps: deps}, nil
}

// Tick registers the query on first call, then corrects the advertised
// track whenever the true position deviates beyond the threshold.
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
	if pos.Dist(expect) > qc.cfg.QueryDeviation+trackEpsilon || qc.trackStale {
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
	qc.deps.Side.Uplink(protocol.AnswerResync{
		Query:   qc.spec.ID,
		LastSeq: qc.answerSeq,
		At:      now,
	})
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
// against the advertised track. A deviation beyond the tracking
// threshold proves the server missed a QueryMove: the client updated its
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
	if v.QPos.Dist(expect) > qc.cfg.QueryDeviation+trackEpsilon {
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
