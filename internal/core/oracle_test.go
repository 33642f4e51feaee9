package core

// The server as it evaluated answers before the member table, kept as the
// reference TestRankedTableMatchesRebuild compares the table against: per
// monitor a position map, an inside set and a sent set, and a rebuild and
// sort of the whole inside set on every applied report. The protocol logic
// around that evaluation is the production server's, statement for
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
	prevRegion   geo.Circle // last installed region, for covering reinstalls

	cands       oraclePositions         // last known positions of aware objects
	inside      map[model.ObjectID]bool // ids currently inside the answer circle
	answer      []model.Neighbor        // current maintained answer
	sent        map[model.ObjectID]bool // membership of the last answer message
	rebaseline  bool
	answerSeq   uint32
	resyncProbe bool

	needsReinstall bool

	frontier          float64
	band              float64
	frontierRefreshes int

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
		s.deregister(v.Query)
	case protocol.AnswerResync:
		if mon, ok := s.monitors[v.Query]; ok && mon.addr == from {
			s.resyncAnswer(mon, now)
		}
	case protocol.ProbeReply:
		if mon, ok := s.monitors[v.Query]; ok && mon.probing && v.Seq == mon.probeSeq {
			mon.replies.Set(v.Object, v.Pos)
		}
	case protocol.EnterReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil {
			mon.cands.Set(v.Object, v.Pos)
			mon.inside[v.Object] = true
			s.refreshAnswer(mon, now)
		}
	case protocol.ExitReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil {
			mon.cands.Set(v.Object, v.Pos)
			delete(mon.inside, v.Object)
			if mon.rng == 0 && len(mon.inside) < mon.k {
				mon.needsReinstall = true
			}
			s.refreshAnswer(mon, now)
		}
	case protocol.LeaveReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil {
			mon.cands.Remove(v.Object)
			if mon.inside[v.Object] {
				delete(mon.inside, v.Object)
				if mon.rng == 0 && len(mon.inside) < mon.k {
					mon.needsReinstall = true
				}
			}
			s.refreshAnswer(mon, now)
		}
	case protocol.MoveReport:
		if mon := s.current(v.Query, v.Epoch); mon != nil {
			mon.cands.Set(v.Object, v.Pos)
			mon.inside[v.Object] = true
			s.refreshAnswer(mon, now)
		}
	default:
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
		touched := mon.cands.Has(id) || mon.inside[id]
		if !touched {
			continue
		}
		mon.cands.Remove(id)
		if mon.inside[id] {
			delete(mon.inside, id)
			if mon.rng == 0 && len(mon.inside) < mon.k {
				mon.needsReinstall = true
			}
		}
		s.refreshAnswer(mon, now)
	}
	for _, q := range deadQueries {
		s.deregister(q)
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
		cands:          oraclePositions{},
		inside:         make(map[model.ObjectID]bool),
		sent:           make(map[model.ObjectID]bool),
		replies:        oraclePositions{},
		needsReinstall: true,
	}
	s.monitors[v.Query] = mon
	i, _ := slices.BinarySearch(s.order, v.Query)
	s.order = slices.Insert(s.order, i, v.Query)
}

func (s *oracleServer) deregister(q model.QueryID) {
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
}

func (mon *oracleMonitor) qEst(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(mon.qpos, mon.qvel, float64(now-mon.qat)*dt)
}

func (s *oracleServer) delta() float64 {
	return geo.SafeRadius(0, s.deps.MaxObjectSpeed, s.deps.MaxQuerySpeed,
		float64(s.cfg.HorizonTicks)*s.deps.DT)
}

func (s *oracleServer) tick(now model.Tick) {
	cfg := s.cfg
	for _, q := range s.order {
		mon := s.monitors[q]
		mon.frontierRefreshes = 0
		if mon.probing {
			continue
		}
		if cfg.Influence && mon.rng == 0 && mon.installed && mon.frontier > 0 {
			s.refreshAnswer(mon, now)
		}
		if mon.installed && now-mon.installedAt >= model.Tick(cfg.HorizonTicks) {
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
		acc := mon.accBuf[:0]
		for id := range mon.inside {
			if p, ok := mon.cands.Position(id); ok {
				acc = append(acc, model.Neighbor{ID: id, Dist: p.Dist(center)})
			}
		}
		mon.accBuf = acc
		model.SortNeighbors(acc)
		if len(acc) < mon.k {
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

	gone := mon.goneBuf[:0]
	mon.cands.Visit(func(id model.ObjectID, p geo.Point) bool {
		if p.Dist(center) > radius && !mon.inside[id] {
			gone = append(gone, id)
		}
		return true
	})
	mon.goneBuf = gone
	for _, id := range gone {
		mon.cands.Remove(id)
	}

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
	s.refreshAnswer(mon, now)
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

func (s *oracleServer) updateFrontier(mon *oracleMonitor, center geo.Point, rk float64) {
	mon.frontier, mon.band = 0, 0
	if mon.rng > 0 {
		return
	}
	acc := mon.extraBuf[:0]
	for id := range mon.inside {
		if p, ok := mon.cands.Position(id); ok {
			acc = append(acc, model.Neighbor{ID: id, Dist: p.Dist(center)})
		}
	}
	mon.extraBuf = acc
	if len(acc) < mon.k {
		return
	}
	model.SortNeighbors(acc)
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

func (mon *oracleMonitor) frontierValid(sorted []model.Neighbor) bool {
	if len(sorted) < mon.k {
		return false
	}
	if sorted[mon.k-1].Dist > mon.frontier {
		return false
	}
	return len(sorted) == mon.k || sorted[mon.k].Dist > mon.frontier
}

func (s *oracleServer) broadcastInstall(cover geo.Circle, mon *oracleMonitor, inst protocol.MonitorInstall) {
	if s.cfg.Influence {
		s.deps.Side.Broadcast(cover, protocol.InfluenceInstall{
			Install: inst, Frontier: mon.frontier, Band: mon.band,
		})
		return
	}
	s.deps.Side.Broadcast(cover, inst)
}

func (s *oracleServer) startProbe(mon *oracleMonitor, now model.Tick) {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)
	radius := cfg.MinProbeRadius
	if mon.rng > 0 {
		radius = mon.rng + s.delta()
	} else if mon.cands.Len() >= mon.k {
		ns := mon.cands.KNN(center, mon.k)
		if est := ns[len(ns)-1].Dist + s.delta(); est > radius {
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
}

func (s *oracleServer) finalize(now model.Tick) bool {
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
	if s.cfg.Influence {
		for _, q := range s.order {
			mon := s.monitors[q]
			if !mon.needsReinstall || !mon.installed || mon.probing ||
				mon.frontierRefreshes >= maxFrontierRefreshes {
				continue
			}
			if mon.rng == 0 && len(mon.inside) < mon.k {
				continue // under-full circle: next Tick's probe recovers it
			}
			mon.frontierRefreshes++
			s.refreshInstall(mon, now)
			sent = true
		}
	}
	return sent
}

func (s *oracleServer) concludeProbe(mon *oracleMonitor, now model.Tick) bool {
	cfg := s.cfg
	center := mon.qEst(now, s.deps.DT)

	if mon.rng > 0 {
		radius := mon.rng + s.delta()
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
	radius := rk + s.delta()
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
		At:     now,
	})
}

func (s *oracleServer) install(mon *oracleMonitor, now model.Tick, center geo.Point, rk, radius float64) {
	region := geo.Circle{Center: center, R: radius}
	mon.epoch++
	mon.installed = true
	mon.answerRadius = rk
	mon.radius = radius
	mon.installedAt = now
	mon.probing = false
	mon.needsReinstall = false
	mon.rebaseline = true // next answer message re-baselines delta clients

	mon.cands.Clear()
	clear(mon.inside)
	mon.replies.Visit(func(id model.ObjectID, p geo.Point) bool {
		if d := p.Dist(center); d <= radius {
			mon.cands.Set(id, p)
			if d <= rk {
				mon.inside[id] = true
			}
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
	if mon.resyncProbe {
		mon.resyncProbe = false
		s.resyncAnswer(mon, now)
		return
	}
	s.refreshAnswer(mon, now)
}

func (s *oracleServer) computeAnswer(mon *oracleMonitor, now model.Tick) []model.Neighbor {
	center := mon.qEst(now, s.deps.DT)

	acc := mon.accBuf[:0]
	for id := range mon.inside {
		if p, ok := mon.cands.Position(id); ok {
			acc = append(acc, model.Neighbor{ID: id, Dist: p.Dist(center)})
		}
	}
	model.SortNeighbors(acc)
	if s.cfg.Influence && mon.rng == 0 && mon.installed && !mon.probing &&
		mon.frontier > 0 && !mon.frontierValid(acc) {
		mon.needsReinstall = true
	}
	if mon.rng > 0 {
	} else if len(acc) > mon.k {
		acc = acc[:mon.k]
	} else if len(acc) < mon.k && mon.cands.Len() > len(acc) {
		extra := mon.extraBuf[:0]
		mon.cands.Visit(func(id model.ObjectID, p geo.Point) bool {
			if !mon.inside[id] {
				extra = append(extra, model.Neighbor{ID: id, Dist: p.Dist(center)})
			}
			return true
		})
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
	acc := s.computeAnswer(mon, now)

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
		return
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
		return
	}
	s.sendFullAnswer(mon, acc, now)
}

func (s *oracleServer) resyncAnswer(mon *oracleMonitor, now model.Tick) {
	s.sendFullAnswer(mon, s.computeAnswer(mon, now), now)
}

func (s *oracleServer) exportLocked(q model.QueryID, mon *oracleMonitor) MonitorState {
	st := MonitorState{
		Query:        mon.query,
		K:            mon.k,
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
		PrevRegion:   mon.prevRegion,
		AnswerSeq:    mon.answerSeq,
		LastProbeAt:  mon.lastProbeAt,
		Frontier:     mon.frontier,
		Band:         mon.band,
	}
	if n := mon.cands.Len(); n > 0 {
		st.Candidates = make([]CandidateState, 0, n)
		mon.cands.Visit(func(id model.ObjectID, p geo.Point) bool {
			st.Candidates = append(st.Candidates, CandidateState{ID: id, Pos: p})
			return true
		})
		slices.SortFunc(st.Candidates, func(a, b CandidateState) int {
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

func (s *oracleServer) importMonitor(st MonitorState, now model.Tick) {
	if _, exists := s.monitors[st.Query]; exists {
		return
	}
	if st.Range < 0 || (st.Range == 0 && (st.K <= 0 || st.K > maxK)) ||
		!finitePoint(st.QPos) || !finiteVec(st.QVel) {
		return
	}
	if !finite(st.Frontier) || st.Frontier < 0 || !finite(st.Band) || st.Band < 0 {
		st.Frontier, st.Band = 0, 0
	}
	mon := &oracleMonitor{
		query:        st.Query,
		k:            st.K,
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
		prevRegion:   st.PrevRegion,
		answerSeq:    st.AnswerSeq,
		lastProbeAt:  st.LastProbeAt,
		frontier:     st.Frontier,
		band:         st.Band,
		cands:        oraclePositions{},
		inside:       make(map[model.ObjectID]bool, len(st.Inside)),
		sent:         make(map[model.ObjectID]bool, len(st.Sent)),
		replies:      oraclePositions{},
	}
	for _, c := range st.Candidates {
		mon.cands.Set(c.ID, c.Pos)
	}
	for _, id := range st.Inside {
		mon.inside[id] = true
	}
	for _, id := range st.Sent {
		mon.sent[id] = true
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
