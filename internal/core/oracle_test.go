package core

// The server as it evaluated answers before the member table, kept as the
// reference TestRankedTableMatchesRebuild compares the table against: per
// monitor a track map, an inside set and a sent set, and a rebuild and
// sort of the whole inside set, each member dead-reckoned along its
// reported track, on every applied report and every tick. The protocol
// logic around that evaluation is the production server's, statement for
// statement; a change to the production protocol is mirrored here or the
// differential test retired with a reason.

import (
	"math"
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// oraclePositions is the candidate set the oracle's monitors keep: last
// known position by object id.
type oraclePositions map[model.ObjectID]geo.Point

func (c oraclePositions) Len() int                           { return len(c) }
func (c oraclePositions) Set(id model.ObjectID, p geo.Point) { c[id] = p }
func (c oraclePositions) Remove(id model.ObjectID)           { delete(c, id) }
func (c oraclePositions) Clear()                             { clear(c) }
func (c oraclePositions) Has(id model.ObjectID) bool         { _, ok := c[id]; return ok }
func (c oraclePositions) Position(id model.ObjectID) (geo.Point, bool) {
	p, ok := c[id]
	return p, ok
}

func (c oraclePositions) Visit(fn func(model.ObjectID, geo.Point) bool) {
	for id, p := range c {
		if !fn(id, p) {
			return
		}
	}
}

// oracleTrack is a candidate's reported track: position pos at tick at,
// moving at vel. filed marks a candidate production has filed in its
// annulus, which keeps a position only: it has no velocity and no tick,
// so no report is too old for it.
type oracleTrack struct {
	pos   geo.Point
	vel   geo.Vector
	at    model.Tick
	filed bool
}

// posAt extrapolates the track to now.
func (c oracleTrack) posAt(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(c.pos, c.vel, float64(now-c.at)*dt)
}

// oracleCands is the candidate set the oracle's monitors keep: the last
// reported track by object id.
type oracleCands map[model.ObjectID]oracleTrack

// file moves every candidate outside the inside set to the annulus, at
// its reported position.
func (c oracleCands) file(inside map[model.ObjectID]bool) {
	for id, tr := range c {
		if !inside[id] {
			c[id] = oracleTrack{pos: tr.pos, filed: true}
		}
	}
}

// KNN returns the k nearest candidates to q in neighbor order.
func (c oraclePositions) KNN(q geo.Point, k int) []model.Neighbor {
	var ns []model.Neighbor
	for id, p := range c {
		ns = append(ns, model.Neighbor{ID: id, Dist: p.Dist(q)})
	}
	model.SortNeighbors(ns)
	return ns[:min(k, len(ns))]
}

type oracleServer struct {
	cfg      Config
	deps     ServerDeps
	monitors map[model.QueryID]*oracleMonitor
	order    []model.QueryID
}

func newOracleServer(cfg Config, deps ServerDeps) *oracleServer {
	return &oracleServer{cfg: cfg, deps: deps, monitors: make(map[model.QueryID]*oracleMonitor)}
}

type oracleMonitor struct {
	query model.QueryID
	k     int
	rng   float64        // fixed range; 0 means kNN mode
	addr  model.ObjectID // focal client's network address

	qpos geo.Point
	qvel geo.Vector
	qat  model.Tick

	epoch        uint32
	installed    bool
	answerRadius float64
	radius       float64
	installedAt  model.Tick
	lastInstall  *protocol.MonitorInstall // the install last broadcast; nil before the first
	advVel       geo.Vector               // the query track the installed region follows
	// past holds the installs before lastInstall, newest first, as far
	// back as a report may lag; heldBefore is past[0] when lastInstall is
	// a refresh: its audience holds it until lastInstall lands.
	past       [epochGrace]*protocol.MonitorInstall
	heldBefore *protocol.MonitorInstall

	cands       oracleCands             // last reported tracks of aware objects
	inside      map[model.ObjectID]bool // ids currently inside the answer circle
	answer      []model.Neighbor        // current maintained answer
	sent        map[model.ObjectID]bool // membership of the last answer message
	pending     bool                    // answer recomputed since the last answer message
	rebaseline  bool
	answerSeq   uint32
	resyncProbe bool

	needsReinstall bool

	probing     bool
	probeSeq    uint32
	probeRadius float64
	probeDue    model.Tick
	lastProbeAt model.Tick
	replies     oraclePositions

	accBuf     []model.Neighbor
	extraBuf   []model.Neighbor
	addedBuf   []model.Neighbor
	removedBuf []model.ObjectID
	accSet     map[model.ObjectID]bool
	goneBuf    []model.ObjectID
}

func (s *oracleServer) handleUplink(from model.ObjectID, msg protocol.Message, now model.Tick) {
	switch v := msg.(type) {
	case protocol.QueryRegister:
		s.register(v, from)
	case protocol.QueryMove:
		if mon, ok := s.monitors[v.Query]; ok && finitePoint(v.Pos) && finiteVec(v.Vel) {
			mon.qpos, mon.qvel, mon.qat = v.Pos, v.Vel, v.At
			mon.needsReinstall = true
		}
	case protocol.QueryDeregister:
		s.deregister(v.Query, now)
	case protocol.AnswerResync:
		if mon, ok := s.monitors[v.Query]; ok && mon.addr == from {
			s.resyncAnswer(mon, now)
		}
	case protocol.ProbeReply:
		if mon, ok := s.monitors[v.Query]; ok && mon.probing && v.Seq == mon.probeSeq {
			mon.replies.Set(v.Object, v.Pos)
		}
	case protocol.EnterReport:
		s.placeTrack(v.MemberReport, v.Vel, now)
	case protocol.MoveReport:
		s.placeTrack(v.MemberReport, v.Vel, now)
	case protocol.ExitReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil {
			mon.apply(v.Object, oracleTrack{pos: v.Pos, at: v.At}, false)
			if mon.rng == 0 && len(mon.inside) < mon.k {
				mon.needsReinstall = true
			}
			s.refreshAnswer(mon, now)
		}
	default:
	}
}

// placeTrack applies an Enter or a Move: inside for a range monitor; for
// a kNN monitor inside unless, at its report tick, the track lies outside
// the answer circle of the install the report names, when it goes
// outside at rest at the reported point, with the report tick, as
// exitOffCircle moves one.
func (s *oracleServer) placeTrack(r protocol.MemberReport, vel geo.Vector, now model.Tick) {
	mon := s.current(r.Query, r.Epoch)
	if mon == nil {
		return
	}
	var named *protocol.MonitorInstall
	for _, inst := range append([]*protocol.MonitorInstall{mon.lastInstall}, mon.past[:]...) {
		if inst != nil && inst.Epoch == r.Epoch {
			named = inst
		}
	}
	tr := oracleTrack{pos: r.Pos, vel: vel, at: r.At}
	if p, out := s.outside(mon, named, tr, r.At); out {
		mon.apply(r.Object, oracleTrack{pos: p, at: tr.at}, false)
		if len(mon.inside) < mon.k {
			mon.needsReinstall = true
		}
	} else {
		mon.apply(r.Object, tr, true)
	}
	s.refreshAnswer(mon, now)
}

// apply records a member report's track and side. A filed candidate that
// stays outside keeps only the new position; a report older than a
// track on record changes nothing.
func (mon *oracleMonitor) apply(id model.ObjectID, tr oracleTrack, inside bool) {
	old, known := mon.cands[id]
	switch {
	case known && old.filed && !inside:
		mon.cands[id] = oracleTrack{pos: tr.pos, filed: true}
		return
	case known && !old.filed && tr.at < old.at:
		return
	}
	mon.cands[id] = tr
	if inside {
		mon.inside[id] = true
	} else {
		delete(mon.inside, id)
	}
}

func (s *oracleServer) clientGone(id model.ObjectID, now model.Tick) {
	var deadQueries []model.QueryID
	for _, q := range s.order {
		mon := s.monitors[q]
		if mon.addr == id {
			deadQueries = append(deadQueries, q)
			continue
		}
		mon.replies.Remove(id)
		_, known := mon.cands[id]
		if !known && !mon.inside[id] {
			continue
		}
		delete(mon.cands, id)
		if mon.inside[id] {
			delete(mon.inside, id)
			if mon.rng == 0 && len(mon.inside) < mon.k {
				mon.needsReinstall = true
			}
		}
		s.refreshAnswer(mon, now)
	}
	for _, q := range deadQueries {
		s.deregister(q, now)
	}
}

func (s *oracleServer) current(q model.QueryID, epoch uint32) *oracleMonitor {
	mon, ok := s.monitors[q]
	if !ok || epoch > mon.epoch || mon.epoch-epoch > epochGrace {
		return nil
	}
	return mon
}

func (s *oracleServer) register(v protocol.QueryRegister, from model.ObjectID) {
	if mon, exists := s.monitors[v.Query]; exists {
		if mon.addr == from {
			s.resyncAnswer(mon, s.deps.Now())
		}
		return
	}
	if v.Range < 0 || math.IsNaN(v.Range) || math.IsInf(v.Range, 0) ||
		!finitePoint(v.Pos) || !finiteVec(v.Vel) ||
		(v.Range == 0 && (v.K == 0 || v.K > maxK)) {
		return
	}
	mon := &oracleMonitor{
		query:          v.Query,
		k:              int(v.K),
		rng:            v.Range,
		addr:           from,
		qpos:           v.Pos,
		qvel:           v.Vel,
		qat:            v.At,
		cands:          oracleCands{},
		inside:         make(map[model.ObjectID]bool),
		sent:           make(map[model.ObjectID]bool),
		replies:        oraclePositions{},
		needsReinstall: true,
	}
	s.monitors[v.Query] = mon
	i, _ := slices.BinarySearch(s.order, v.Query)
	s.order = slices.Insert(s.order, i, v.Query)
}

func (s *oracleServer) deregister(q model.QueryID, now model.Tick) {
	mon, ok := s.monitors[q]
	if !ok {
		return
	}
	if mon.installed {
		at := now + model.Tick(s.deps.LatencyTicks)
		s.deps.Side.Broadcast(heldRegion(*mon.lastInstall, at, s.deps.DT),
			protocol.MonitorCancel{Query: q, Epoch: mon.epoch})
	}
	delete(s.monitors, q)
	if i, found := slices.BinarySearch(s.order, q); found {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

func (mon *oracleMonitor) qEst(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.qat)*dt)
}

// horizon is H_q for answer radius rk and a region carried along v at
// s_q = min(|v|, Vqry).
func (s *oracleServer) horizon(rk float64, v geo.Vector) int {
	sq := min(v.Len(), s.deps.MaxQuerySpeed)
	return reinstallHorizon(s.cfg.HorizonTicks, rk, s.deps.MaxObjectSpeed, sq, s.deps.DT)
}

// delta is δ_q = (Vobj + s_q)·H_q·Δt + (Vqry + s_q)·2L·Δt.
func (s *oracleServer) delta(rk float64, v geo.Vector) float64 {
	sq := min(v.Len(), s.deps.MaxQuerySpeed)
	return (s.deps.MaxObjectSpeed+sq)*float64(s.horizon(rk, v))*s.deps.DT +
		(s.deps.MaxQuerySpeed+sq)*float64(2*s.deps.LatencyTicks)*s.deps.DT
}

func (s *oracleServer) tick(now model.Tick) {
	cfg := s.cfg
	for _, q := range s.order {
		mon := s.monitors[q]
		if mon.installed {
			s.exitOffCircle(mon, now)
			s.refreshAnswer(mon, now)
		}
		if mon.probing {
			continue
		}
		if mon.installed && now-mon.installedAt >= model.Tick(s.horizon(mon.answerRadius, mon.advVel)) {
			mon.needsReinstall = true
		}
		if cfg.ResyncTicks > 0 && mon.installed &&
			now-mon.lastProbeAt >= model.Tick(cfg.ResyncTicks) {
			mon.resyncProbe = true
			s.startProbe(mon, now)
			continue
		}
		if mon.rng == 0 && cfg.AnswerSlack > 0 && mon.installed &&
			now-mon.installedAt >= refreshMinGap {
			count, target := len(mon.inside), mon.k+cfg.AnswerSlack
			if count < mon.k+(cfg.AnswerSlack+1)/2 || count > 2*target {
				mon.needsReinstall = true
			}
		}
		if !mon.needsReinstall {
			continue
		}
		if mon.installed && (mon.rng > 0 || len(mon.inside) >= mon.k) {
			s.refreshInstall(mon, now)
		} else {
			s.startProbe(mon, now)
		}
	}
}

func (s *oracleServer) refreshInstall(mon *oracleMonitor, now model.Tick) {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)

	var rk float64
	if mon.rng > 0 {
		rk = mon.rng
	} else {
		acc := mon.insideAt(mon.accBuf[:0], center, now, s.deps.DT)
		mon.accBuf = acc
		if len(acc) < mon.k {
			s.startProbe(mon, now)
			return
		}
		rk = s.boundaryFromKnown(mon, acc)
	}
	if rk > cfg.MaxProbeRadius {
		rk = cfg.MaxProbeRadius
	}
	radius := rk + s.delta(rk, mon.qvel)
	if radius > cfg.MaxProbeRadius {
		radius = cfg.MaxProbeRadius
	}
	mon.epoch++
	mon.answerRadius = rk
	mon.radius = radius
	mon.installedAt = now
	mon.needsReinstall = false

	gone := mon.goneBuf[:0]
	for id, c := range mon.cands {
		if c.pos.Dist(center) > radius && !mon.inside[id] {
			gone = append(gone, id)
		}
	}
	mon.goneBuf = gone
	for _, id := range gone {
		delete(mon.cands, id)
	}
	mon.cands.file(mon.inside)

	s.broadcastInstall(mon, protocol.MonitorInstall{
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
	s.exitOffCircle(mon, now)
	s.refreshAnswer(mon, now)
}

// exitOffCircle moves every inside candidate whose reported track lies
// outside the answer circle its audience holds to the outside, at rest at
// the track's point with the track's report tick, as the object leaves
// without reporting. The audience holds the last install, or for the L
// ticks it is in flight the one before it, if the last was a refresh; the
// server judges nothing while a full install is in flight.
func (s *oracleServer) exitOffCircle(mon *oracleMonitor, now model.Tick) {
	held := mon.lastInstall
	if now-mon.installedAt < model.Tick(s.deps.LatencyTicks) {
		held = mon.heldBefore
	}
	exited := false
	for id := range mon.inside {
		tr, ok := mon.cands[id]
		if !ok {
			continue
		}
		if p, out := s.outside(mon, held, tr, now); out {
			delete(mon.inside, id)
			mon.cands[id] = oracleTrack{pos: p, at: tr.at}
			exited = true
		}
	}
	if exited && len(mon.inside) < mon.k {
		mon.needsReinstall = true
	}
}

// outside reports whether track tr lies outside the answer circle of
// kNN monitor mon's install held at tick t, and where the track is then.
func (s *oracleServer) outside(mon *oracleMonitor, held *protocol.MonitorInstall, tr oracleTrack, t model.Tick) (geo.Point, bool) {
	if mon.rng > 0 || held == nil {
		return geo.Point{}, false
	}
	dt := s.deps.DT
	c := geo.DeadReckon(held.QueryPos, held.QueryVel, float64(t-held.At)*dt)
	p := tr.posAt(t, dt)
	return p, oracleDist(p, c) > held.AnswerRadius
}

func (s *oracleServer) boundaryFromKnown(mon *oracleMonitor, sorted []model.Neighbor) float64 {
	target := mon.k + s.cfg.AnswerSlack
	if len(sorted) >= target {
		return sorted[target-1].Dist
	}
	outer := sorted[len(sorted)-1].Dist
	if outer <= 0 {
		return s.cfg.MinProbeRadius
	}
	est := outer * math.Sqrt(float64(target)/float64(len(sorted)))
	if est > s.cfg.MaxProbeRadius {
		est = s.cfg.MaxProbeRadius
	}
	return est
}

// heldRegion is the region an object that heard inst holds at tick t.
func heldRegion(inst protocol.MonitorInstall, t model.Tick, dt float64) geo.Circle {
	return geo.Circle{Center: geo.DeadReckon(inst.QueryPos, inst.QueryVel, float64(t-inst.At)*dt), R: inst.Radius}
}

// broadcastInstall sends inst over its own circle, widened to contain the
// region the previous install's audience holds from inst.At until
// delivery, and records it as the last install sent.
func (s *oracleServer) broadcastInstall(mon *oracleMonitor, inst protocol.MonitorInstall) {
	cover := geo.Circle{Center: inst.QueryPos, R: inst.Radius}
	if prev := mon.lastInstall; prev != nil {
		for _, t := range []model.Tick{inst.At, inst.At + model.Tick(s.deps.LatencyTicks)} {
			held := heldRegion(*prev, t, s.deps.DT)
			cover.R = max(cover.R, cover.Center.Dist(held.Center)+held.R)
		}
	}
	copy(mon.past[1:], mon.past[:])
	mon.past[0], mon.heldBefore = mon.lastInstall, nil
	if inst.Refresh {
		mon.heldBefore = mon.lastInstall
	}
	mon.lastInstall, mon.advVel = &inst, inst.QueryVel
	s.deps.Side.Broadcast(cover, inst)
}

func (s *oracleServer) startProbe(mon *oracleMonitor, now model.Tick) {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)
	radius := cfg.MinProbeRadius
	if mon.rng > 0 {
		radius = mon.rng + s.delta(mon.rng, mon.qvel)
	} else if len(mon.cands) >= mon.k {
		var ns []model.Neighbor
		for id, c := range mon.cands {
			ns = append(ns, model.Neighbor{ID: id, Dist: c.posAt(now, s.deps.DT).Dist(center)})
		}
		model.SortNeighbors(ns)
		rk := ns[mon.k-1].Dist
		if est := rk + s.delta(rk, mon.qvel); est > radius {
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
	})
}

// finalize ends a round: per query, a due probe concludes, and then the
// answer the round left behind goes out if it names other objects than
// the last one sent.
func (s *oracleServer) finalize(now model.Tick) bool {
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

func (s *oracleServer) concludeProbe(mon *oracleMonitor, now model.Tick) bool {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)

	if mon.rng > 0 {
		radius := mon.rng + s.delta(mon.rng, mon.qvel)
		if radius > cfg.MaxProbeRadius {
			radius = cfg.MaxProbeRadius
		}
		s.install(mon, now, center, mon.rng, radius)
		return true
	}

	if mon.replies.Len() < mon.k && mon.probeRadius < cfg.MaxProbeRadius {
		s.expandProbe(mon, now, min(2*mon.probeRadius, cfg.MaxProbeRadius))
		return true
	}

	target := mon.k + cfg.AnswerSlack
	ns := mon.replies.KNN(center, target)
	var rk float64
	switch {
	case len(ns) >= mon.k:
		rk = s.boundaryFromKnown(mon, ns)
	default:
		rk = mon.probeRadius
	}
	radius := rk + s.delta(rk, mon.qvel)
	if radius > cfg.MaxProbeRadius {
		radius = cfg.MaxProbeRadius
		if rk > radius {
			rk = radius
		}
	}
	if radius > mon.probeRadius {
		s.expandProbe(mon, now, radius)
		return true
	}
	s.install(mon, now, center, rk, radius)
	return true
}

func (s *oracleServer) expandProbe(mon *oracleMonitor, now model.Tick, radius float64) {
	center := mon.qEst(now, s.deps.DT)
	mon.probeSeq++
	mon.probeRadius = radius
	mon.probeDue = now + model.Tick(2*s.deps.LatencyTicks)
	mon.replies.Clear()
	s.deps.Side.Broadcast(geo.Circle{Center: center, R: radius}, protocol.ProbeRequest{
		Query:  mon.query,
		Seq:    mon.probeSeq,
		Region: geo.Circle{Center: center, R: radius},
	})
}

func (s *oracleServer) install(mon *oracleMonitor, now model.Tick, center geo.Point, rk, radius float64) {
	mon.epoch++
	mon.installed = true
	mon.answerRadius = rk
	mon.radius = radius
	mon.installedAt = now
	mon.probing = false
	mon.needsReinstall = false
	mon.rebaseline = true // next answer message re-baselines delta clients

	// Replies carry no velocity: each member is at rest from the tick the
	// round went out.
	sentAt := mon.probeDue - model.Tick(2*s.deps.LatencyTicks)
	clear(mon.cands)
	clear(mon.inside)
	mon.replies.Visit(func(id model.ObjectID, p geo.Point) bool {
		if d := oracleDist(p, center); d <= radius {
			mon.cands[id] = oracleTrack{pos: p, at: sentAt}
			if d <= rk {
				mon.inside[id] = true
			}
		}
		return true
	})
	mon.cands.file(mon.inside)
	mon.replies.Clear()

	s.broadcastInstall(mon, protocol.MonitorInstall{
		Query:        mon.query,
		Epoch:        mon.epoch,
		RangeMode:    mon.rng > 0,
		QueryPos:     center,
		QueryVel:     mon.qvel,
		AnswerRadius: rk,
		Radius:       radius,
		At:           now,
	})
	if mon.resyncProbe {
		mon.resyncProbe = false
		s.resyncAnswer(mon, now)
		return
	}
	s.refreshAnswer(mon, now)
}

// insideAt appends the known inside members, each at its track's
// position at now, in neighbor order from center.
func (mon *oracleMonitor) insideAt(acc []model.Neighbor, center geo.Point, now model.Tick, dt float64) []model.Neighbor {
	for id := range mon.inside {
		if c, ok := mon.cands[id]; ok {
			acc = append(acc, model.Neighbor{ID: id, Dist: c.posAt(now, dt).Dist(center)})
		}
	}
	model.SortNeighbors(acc)
	return acc
}

func (s *oracleServer) computeAnswer(mon *oracleMonitor, now model.Tick) []model.Neighbor {
	center := mon.qEst(now, s.deps.DT)

	acc := mon.insideAt(mon.accBuf[:0], center, now, s.deps.DT)
	if mon.rng > 0 {
	} else if len(acc) > mon.k {
		acc = acc[:mon.k]
	} else if len(acc) < mon.k && len(mon.cands) > len(acc) {
		extra := mon.extraBuf[:0]
		for id, c := range mon.cands {
			if !mon.inside[id] {
				extra = append(extra, model.Neighbor{ID: id, Dist: c.posAt(now, s.deps.DT).Dist(center)})
			}
		}
		mon.extraBuf = extra
		model.SortNeighbors(extra)
		need := mon.k - len(acc)
		if need > len(extra) {
			need = len(extra)
		}
		acc = append(acc, extra[:need]...)
		model.SortNeighbors(acc)
	}
	mon.accBuf = acc
	mon.answer = acc
	return acc
}

func (s *oracleServer) sendFullAnswer(mon *oracleMonitor, acc []model.Neighbor, now model.Tick) {
	mon.rebaseline = false
	clear(mon.sent)
	for _, n := range acc {
		mon.sent[n.ID] = true
	}
	ns := make([]model.Neighbor, len(acc))
	copy(ns, acc)
	mon.answerSeq++
	s.deps.Side.Downlink(mon.addr, protocol.AnswerUpdate{
		Query: mon.query, Seq: mon.answerSeq, At: now,
		QPos: mon.qEst(now, s.deps.DT), Neighbors: ns,
	})
}

func (s *oracleServer) refreshAnswer(mon *oracleMonitor, now model.Tick) {
	s.computeAnswer(mon, now)
	mon.pending = true
}

// sendAnswer downlinks the pending answer when its membership differs
// from the last one sent, and reports whether it did.
func (s *oracleServer) sendAnswer(mon *oracleMonitor, now model.Tick) bool {
	if !mon.pending {
		return false
	}
	mon.pending = false
	acc := mon.answer

	changed := len(acc) != len(mon.sent)
	added := mon.addedBuf[:0]
	for _, n := range acc {
		if !mon.sent[n.ID] {
			changed = true
			added = append(added, n)
		}
	}
	mon.addedBuf = added
	if !changed {
		return false
	}
	if s.cfg.DeltaAnswers && !mon.rebaseline {
		if mon.accSet == nil {
			mon.accSet = make(map[model.ObjectID]bool, len(acc))
		} else {
			clear(mon.accSet)
		}
		for _, n := range acc {
			mon.accSet[n.ID] = true
		}
		removed := mon.removedBuf[:0]
		for id := range mon.sent {
			if !mon.accSet[id] {
				removed = append(removed, id)
			}
		}
		slices.Sort(removed)
		mon.removedBuf = removed
		clear(mon.sent)
		for _, n := range acc {
			mon.sent[n.ID] = true
		}
		mon.answerSeq++
		var outAdded []model.Neighbor
		if len(added) > 0 {
			outAdded = make([]model.Neighbor, len(added))
			copy(outAdded, added)
		}
		var outRemoved []model.ObjectID
		if len(removed) > 0 {
			outRemoved = make([]model.ObjectID, len(removed))
			copy(outRemoved, removed)
		}
		s.deps.Side.Downlink(mon.addr, protocol.AnswerDelta{
			Query: mon.query, Seq: mon.answerSeq, At: now, Added: outAdded, Removed: outRemoved,
		})
		return true
	}
	s.sendFullAnswer(mon, acc, now)
	return true
}

func (s *oracleServer) resyncAnswer(mon *oracleMonitor, now model.Tick) {
	mon.pending = false
	s.sendFullAnswer(mon, s.computeAnswer(mon, now), now)
}

// exportLocked sends a pending answer before it takes the snapshot.
func (s *oracleServer) exportLocked(q model.QueryID, mon *oracleMonitor, now model.Tick) protocol.QueryHandoff {
	s.sendAnswer(mon, now)
	st := protocol.QueryHandoff{
		Query:        mon.query,
		K:            uint32(mon.k),
		Range:        mon.rng,
		Addr:         mon.addr,
		QPos:         mon.qpos,
		QVel:         mon.qvel,
		QAt:          mon.qat,
		Epoch:        mon.epoch,
		Installed:    mon.installed,
		AnswerRadius: mon.answerRadius,
		Radius:       mon.radius,
		InstalledAt:  mon.installedAt,
		AnswerSeq:    mon.answerSeq,
		LastProbeAt:  mon.lastProbeAt,
	}
	if mon.lastInstall != nil {
		st.AdvPos, st.AdvVel = mon.lastInstall.QueryPos, mon.lastInstall.QueryVel
	}
	if n := len(mon.cands); n > 0 {
		st.Candidates = make([]protocol.CandidateRecord, 0, n)
		for id, c := range mon.cands {
			st.Candidates = append(st.Candidates, protocol.CandidateRecord{ID: id, Pos: c.pos, Vel: c.vel, At: c.at})
		}
		slices.SortFunc(st.Candidates, func(a, b protocol.CandidateRecord) int {
			return int(a.ID) - int(b.ID)
		})
	}
	st.Inside = oracleSortedIDs(mon.inside)
	st.Sent = oracleSortedIDs(mon.sent)
	delete(s.monitors, q)
	if i, found := slices.BinarySearch(s.order, q); found {
		s.order = slices.Delete(s.order, i, i+1)
	}
	return st
}

func (s *oracleServer) importMonitor(st protocol.QueryHandoff, now model.Tick) {
	if _, exists := s.monitors[st.Query]; exists {
		return
	}
	if st.Range < 0 || (st.Range == 0 && (st.K == 0 || st.K > maxK)) ||
		!finitePoint(st.QPos) || !finiteVec(st.QVel) ||
		!finitePoint(st.AdvPos) || !finiteVec(st.AdvVel) {
		return
	}
	mon := &oracleMonitor{
		query:        st.Query,
		k:            int(st.K),
		rng:          st.Range,
		addr:         st.Addr,
		qpos:         st.QPos,
		qvel:         st.QVel,
		qat:          st.QAt,
		epoch:        st.Epoch,
		installed:    st.Installed,
		answerRadius: st.AnswerRadius,
		radius:       st.Radius,
		installedAt:  st.InstalledAt,
		advVel:       st.AdvVel,
		answerSeq:    st.AnswerSeq,
		lastProbeAt:  st.LastProbeAt,
		cands:        oracleCands{},
		inside:       make(map[model.ObjectID]bool, len(st.Inside)),
		sent:         make(map[model.ObjectID]bool, len(st.Sent)),
		replies:      oraclePositions{},
	}
	for _, c := range st.Candidates {
		if finitePoint(c.Pos) && finiteVec(c.Vel) {
			mon.apply(c.ID, oracleTrack{pos: c.Pos, vel: c.Vel, at: c.At}, false)
		}
	}
	for _, id := range st.Inside {
		mon.inside[id] = true
	}
	mon.cands.file(mon.inside)
	for _, id := range st.Sent {
		mon.sent[id] = true
	}
	if st.Installed {
		mon.lastInstall = &protocol.MonitorInstall{Epoch: st.Epoch, QueryPos: st.AdvPos, QueryVel: st.AdvVel,
			AnswerRadius: st.AnswerRadius, Radius: st.Radius, At: st.InstalledAt}
	}
	mon.needsReinstall = !st.Installed
	s.monitors[st.Query] = mon
	i, _ := slices.BinarySearch(s.order, st.Query)
	s.order = slices.Insert(s.order, i, st.Query)
	if mon.installed {
		s.resyncAnswer(mon, now)
	}
}

func oracleSortedIDs(set map[model.ObjectID]bool) []model.ObjectID {
	if len(set) == 0 {
		return nil
	}
	out := make([]model.ObjectID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
