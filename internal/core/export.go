package core

// This file holds the monitor-state export/import hooks a spatially
// partitioned federation (internal/cluster) uses to migrate a query
// monitor between servers when its focal client crosses a partition
// boundary. The snapshot is the complete per-query state machine —
// track, epoch, candidate and inside sets, answer sequence — in its wire
// form, protocol.QueryHandoff, so the importing server resumes exactly
// where the exporting one stopped, and the focal client only observes a
// re-baselining AnswerUpdate on the existing resync path.

import (
	"math"
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// exportLocked snapshots mon and removes it from the server's tables.
// Callers hold s.mu and have already skipped probing monitors. A pending
// answer is sent first, so the snapshot's AnswerSeq and Sent include it:
// the importer's re-baseline lands a link delivery later, and the focal
// client must not wait for it on a stale answer.
func (s *Server) exportLocked(q model.QueryID, mon *monitor, now model.Tick) protocol.QueryHandoff {
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
		AdvPos:       mon.advPos,
		AdvVel:       mon.advVel,
		AnswerSeq:    mon.answerSeq,
		LastProbeAt:  mon.lastProbeAt,
	}
	// The rows are walked in ascending id order, so the three lists are
	// sorted too.
	mon.tab.each(func(r member) {
		if r.known {
			st.Candidates = append(st.Candidates, protocol.CandidateRecord{ID: r.id, Pos: r.pos, Vel: r.vel, At: r.at})
		}
		if r.inside {
			st.Inside = append(st.Inside, r.id)
		}
	})
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
	State protocol.QueryHandoff
	Est   geo.Point
}

// ExportMonitorsWhere snapshots and removes every monitor whose
// dead-reckoned focal estimate at now satisfies leave, under a single lock
// acquisition: a federation migrates the monitors whose focal client left
// its strip, whether the client walked or the strip's boundary moved.
// Unlike a deregister an export does NOT broadcast a MonitorCancel: the
// aware objects keep their installs and continue reporting, which is
// exactly what a migration wants. A monitor with a probe round in flight
// is skipped — the in-flight replies are addressed to this server and
// would be lost — so the caller's next sweep picks it up. Monitors are
// visited in query-id order and every snapshot's slices are sorted by id,
// so the export sequence (and hence the wire traffic it produces) is
// deterministic. A snapshot leaves Spread empty: which nodes saw the
// query is the federation's bookkeeping, not the server's.
func (s *Server) ExportMonitorsWhere(now model.Tick, leave func(q model.QueryID, est geo.Point) bool) []ExportedMonitor {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ExportedMonitor
	// exportLocked deletes s.order[i]; the next monitor then sits at i.
	for i := 0; i < len(s.order); {
		q := s.order[i]
		if mon := s.monitors[q]; !mon.probing {
			if est := mon.qEst(now, s.deps.DT); leave(q, est) {
				out = append(out, ExportedMonitor{State: s.exportLocked(q, mon, now), Est: est})
				continue
			}
		}
		i++
	}
	return out
}

// ImportMonitor installs a migrated monitor and immediately re-baselines
// the focal client with a full AnswerUpdate through the resync path: the
// answer sequence continues from the exported value, so the client
// applies the update as an ordinary re-baseline and never observes the
// migration. A snapshot for an already-registered query is dropped.
// Spread is the federation's and is ignored here.
func (s *Server) ImportMonitor(st protocol.QueryHandoff, now model.Tick) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.monitors[st.Query]; exists {
		return
	}
	// The snapshot crossed an inter-node link, which is an open surface
	// like the radio: apply the register-path sanity bounds.
	if st.Range < 0 || (st.Range == 0 && (st.K == 0 || st.K > maxK)) ||
		!finitePoint(st.QPos) || !finiteVec(st.QVel) ||
		!finitePoint(st.AdvPos) || !finiteVec(st.AdvVel) {
		return
	}
	mon := newMonitor(st.Query, int(st.K), st.Range, st.Addr, s.deps.DT)
	mon.qpos, mon.qvel, mon.qat = st.QPos, st.QVel, st.QAt
	mon.epoch, mon.installed = st.Epoch, st.Installed
	mon.answerRadius, mon.radius = st.AnswerRadius, st.Radius
	mon.installedAt, mon.advPos, mon.advVel = st.InstalledAt, st.AdvPos, st.AdvVel
	mon.answerSeq, mon.lastProbeAt = st.AnswerSeq, st.LastProbeAt
	// A candidate with a non-finite track would rank first forever (see
	// handleUplinkLocked); the snapshot may keep its membership.
	for _, c := range st.Candidates {
		if finitePoint(c.Pos) && finiteVec(c.Vel) {
			mon.tab.set(c.ID, line{c.Pos, c.Vel, c.At}, false)
		}
	}
	for _, id := range st.Inside {
		r := mon.tab.row(id)
		mon.tab.setFlags(r, r.known, true)
	}
	// File the outside candidates in the annulus table, at rest; none is
	// forgotten.
	mon.tab.prune(st.QPos, math.Inf(1))
	mon.tab.sent = slices.Clone(st.Sent)
	slices.Sort(mon.tab.sent)
	mon.tab.sent = slices.Compact(mon.tab.sent)
	// A never-installed snapshot (exported between register and first
	// probe) restarts its bootstrap here.
	if !st.Installed {
		mon.reinstall = causeBootstrap
	}
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
		_, row := mon.tab.lookup(id)
		if _, sent := slices.BinarySearch(mon.tab.sent, id); row || sent {
			out = append(out, q)
		}
	}
	return out
}
