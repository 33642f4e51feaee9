package core

// This file holds the monitor-state export/import hooks a spatially
// partitioned federation (internal/cluster) uses to migrate a query
// monitor between servers when its focal client crosses a partition
// boundary. The snapshot is the complete per-query state machine —
// track, epoch, candidate and inside sets, answer sequence — so the
// importing server resumes exactly where the exporting one stopped, and
// the focal client only observes a re-baselining AnswerUpdate on the
// existing resync path.

import (
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// CandidateState is one (object, last known position) pair of an
// exported monitor's candidate set.
type CandidateState struct {
	ID  model.ObjectID
	Pos geo.Point
}

// MonitorState is a portable snapshot of one query monitor. All slices
// are sorted by id so the snapshot (and hence its wire encoding) is
// deterministic.
type MonitorState struct {
	Query model.QueryID
	K     int
	Range float64
	Addr  model.ObjectID

	QPos geo.Point
	QVel geo.Vector
	QAt  model.Tick

	Epoch        uint32
	Installed    bool
	AnswerRadius float64
	Radius       float64
	InstalledAt  model.Tick
	PrevRegion   geo.Circle

	AnswerSeq   uint32
	LastProbeAt model.Tick

	// Influence frontier advertised with the current epoch (zero when
	// none). Migrating it keeps suppressed objects suppressed: the new
	// home validates and refreshes against the same F the aware objects
	// hold, instead of force-refreshing every monitor it imports.
	Frontier float64
	Band     float64

	Candidates []CandidateState
	Inside     []model.ObjectID
	Sent       []model.ObjectID
}

// ExportMonitor snapshots and removes q's monitor. Unlike a deregister
// it does NOT broadcast a MonitorCancel: the aware objects keep their
// installs and continue reporting, which is exactly what a migration
// wants. It refuses (returns false) while a probe round is in flight —
// the in-flight replies are addressed to this server and would be lost —
// so callers retry on a later tick; it also returns false for an
// unknown query.
func (s *Server) ExportMonitor(q model.QueryID) (MonitorState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mon, ok := s.monitors[q]
	if !ok || mon.probing {
		return MonitorState{}, false
	}
	return s.exportLocked(q, mon), true
}

// exportLocked snapshots mon and removes it from the server's tables.
// Callers hold s.mu and have already rejected probing monitors.
func (s *Server) exportLocked(q model.QueryID, mon *monitor) MonitorState {
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
	// The rows are in ascending id order, so the three lists are too.
	for _, r := range mon.tab.rows {
		if r.known {
			st.Candidates = append(st.Candidates, CandidateState{ID: r.id, Pos: r.pos})
		}
		if r.inside {
			st.Inside = append(st.Inside, r.id)
		}
	}
	if len(mon.tab.sent) > 0 {
		st.Sent = slices.Clone(mon.tab.sent)
	}
	delete(s.monitors, q)
	if i, found := slices.BinarySearch(s.order, q); found {
		s.order = slices.Delete(s.order, i, i+1)
	}
	return st
}

// ExportedMonitor pairs a bulk-exported snapshot with the focal track
// estimate the leave predicate saw, so the caller routes the snapshot
// without re-deriving the estimate from the (already removed) monitor.
type ExportedMonitor struct {
	State MonitorState
	Est   geo.Point
}

// ExportMonitorsWhere bulk-exports every monitor whose dead-reckoned
// focal estimate at now satisfies leave, under a single lock acquisition
// — the column-migration path of an adaptive partition, where one map
// change moves many monitors at once. Monitors are visited in query-id
// order, so the export sequence (and hence the wire traffic it produces)
// is deterministic. Probing monitors are skipped exactly like
// ExportMonitor refuses them; the caller's next sweep picks them up.
func (s *Server) ExportMonitorsWhere(now model.Tick, leave func(q model.QueryID, est geo.Point) bool) []ExportedMonitor {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ExportedMonitor
	// exportLocked mutates s.order; walk a snapshot of it.
	for _, q := range slices.Clone(s.order) {
		mon := s.monitors[q]
		if mon.probing {
			continue
		}
		est := mon.qEst(now, s.deps.DT)
		if !leave(q, est) {
			continue
		}
		out = append(out, ExportedMonitor{State: s.exportLocked(q, mon), Est: est})
	}
	return out
}

// ImportMonitor installs a migrated monitor and immediately re-baselines
// the focal client with a full AnswerUpdate through the resync path: the
// answer sequence continues from the exported value, so the client
// applies the update as an ordinary re-baseline and never observes the
// migration. A snapshot for an already-registered query is dropped.
func (s *Server) ImportMonitor(st MonitorState, now model.Tick) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.monitors[st.Query]; exists {
		return
	}
	// The snapshot crossed an inter-node link, which is an open surface
	// like the radio: apply the register-path sanity bounds.
	if st.Range < 0 || (st.Range == 0 && (st.K <= 0 || st.K > maxK)) ||
		!finitePoint(st.QPos) || !finiteVec(st.QVel) {
		return
	}
	// The codec already rejects non-finite thresholds; zero a locally
	// constructed bad value too, so an unusable frontier degrades to the
	// θ rule instead of poisoning suppression decisions.
	if !finite(st.Frontier) || st.Frontier < 0 || !finite(st.Band) || st.Band < 0 {
		st.Frontier, st.Band = 0, 0
	}
	mon := newMonitor(st.Query, st.K, st.Range, st.Addr)
	mon.qpos, mon.qvel, mon.qat = st.QPos, st.QVel, st.QAt
	mon.epoch, mon.installed = st.Epoch, st.Installed
	mon.answerRadius, mon.radius = st.AnswerRadius, st.Radius
	mon.installedAt, mon.prevRegion = st.InstalledAt, st.PrevRegion
	mon.answerSeq, mon.lastProbeAt = st.AnswerSeq, st.LastProbeAt
	mon.frontier, mon.band = st.Frontier, st.Band
	// A candidate with a non-finite position would rank first forever
	// (see handleUplinkLocked); the snapshot may keep its membership.
	for _, c := range st.Candidates {
		if finitePoint(c.Pos) {
			mon.tab.set(c.ID, c.Pos, false)
		}
	}
	for _, id := range st.Inside {
		r := mon.tab.row(id)
		mon.tab.setFlags(r, r.known, true)
	}
	mon.tab.sent = slices.Clone(st.Sent)
	slices.Sort(mon.tab.sent)
	mon.tab.sent = slices.Compact(mon.tab.sent)
	// A never-installed snapshot (exported between register and first
	// probe) restarts its bootstrap here.
	mon.needsReinstall = !st.Installed
	s.monitors[st.Query] = mon
	i, _ := slices.BinarySearch(s.order, st.Query)
	s.order = slices.Insert(s.order, i, st.Query)
	if mon.installed {
		s.resyncAnswer(mon, now)
	}
}

// HasQuery reports whether q is registered at this server.
func (s *Server) HasQuery(q model.QueryID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.monitors[q]
	return ok
}

// QueryEstimate extrapolates q's advertised track to now. It is how a
// federation detects that a focal client drifted out of this server's
// region and the monitor should migrate.
func (s *Server) QueryEstimate(q model.QueryID, now model.Tick) (geo.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mon, ok := s.monitors[q]
	if !ok {
		return geo.Point{}, false
	}
	return mon.qEst(now, s.deps.DT), true
}

// QueriesInvolving returns the sorted ids of the queries whose monitor
// state (candidates, inside set, or last sent answer) currently includes
// the object. A federation transfers this set on object handoff so the
// new owner can purge the right monitors when the client disconnects.
func (s *Server) QueriesInvolving(id model.ObjectID) []model.QueryID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []model.QueryID
	for _, q := range s.order {
		mon := s.monitors[q]
		_, row := mon.tab.find(id)
		if _, sent := slices.BinarySearch(mon.tab.sent, id); row || sent {
			out = append(out, q)
		}
	}
	return out
}

// ExportState converts the snapshot to its wire form.
func (st MonitorState) ExportState() protocol.QueryHandoff {
	qh := protocol.QueryHandoff{
		Query:        st.Query,
		K:            uint32(st.K),
		Range:        st.Range,
		Addr:         st.Addr,
		QPos:         st.QPos,
		QVel:         st.QVel,
		QAt:          st.QAt,
		Epoch:        st.Epoch,
		Installed:    st.Installed,
		AnswerRadius: st.AnswerRadius,
		Radius:       st.Radius,
		InstalledAt:  st.InstalledAt,
		PrevRegion:   st.PrevRegion,
		AnswerSeq:    st.AnswerSeq,
		LastProbeAt:  st.LastProbeAt,
		Frontier:     st.Frontier,
		Band:         st.Band,
		Inside:       st.Inside,
		Sent:         st.Sent,
	}
	if len(st.Candidates) > 0 {
		qh.Candidates = make([]protocol.CandidateRecord, len(st.Candidates))
		for i, c := range st.Candidates {
			qh.Candidates[i] = protocol.CandidateRecord{ID: c.ID, Pos: c.Pos}
		}
	}
	return qh
}

// ImportState converts a wire handoff back to a snapshot.
func ImportState(qh protocol.QueryHandoff) MonitorState {
	st := MonitorState{
		Query:        qh.Query,
		K:            int(qh.K),
		Range:        qh.Range,
		Addr:         qh.Addr,
		QPos:         qh.QPos,
		QVel:         qh.QVel,
		QAt:          qh.QAt,
		Epoch:        qh.Epoch,
		Installed:    qh.Installed,
		AnswerRadius: qh.AnswerRadius,
		Radius:       qh.Radius,
		InstalledAt:  qh.InstalledAt,
		PrevRegion:   qh.PrevRegion,
		AnswerSeq:    qh.AnswerSeq,
		LastProbeAt:  qh.LastProbeAt,
		Frontier:     qh.Frontier,
		Band:         qh.Band,
		Inside:       qh.Inside,
		Sent:         qh.Sent,
	}
	if len(qh.Candidates) > 0 {
		st.Candidates = make([]CandidateState, len(qh.Candidates))
		for i, c := range qh.Candidates {
			st.Candidates[i] = CandidateState{ID: c.ID, Pos: c.Pos}
		}
	}
	return st
}
