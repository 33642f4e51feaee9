// Package knn provides the query-evaluation primitives layered on top of
// the spatial index: a brute-force oracle (the correctness reference for
// every other evaluator and the auditor's ground truth), and the small
// candidate-set evaluator the distributed server collects probe replies
// in, which holds storage only while a probe round is in flight.
package knn

import (
	"dmknn/internal/container/pq"
	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// BruteForce returns the k nearest states to q in ascending distance
// order, ties broken by id. skip, if non-nil, excludes ids. It is O(n log
// k) and allocation-light; correctness is self-evident, which is why it
// anchors the property tests.
func BruteForce(states []model.ObjectState, q geo.Point, k int, skip map[model.ObjectID]bool) []model.Neighbor {
	if k <= 0 || len(states) == 0 {
		return nil
	}
	best := pq.NewBoundedMax[model.ObjectID](k)
	for i := range states {
		s := &states[i]
		if skip != nil && skip[s.ID] {
			continue
		}
		best.Offer(s.Pos.Dist(q), s.ID)
	}
	dists, ids := best.Drain()
	out := make([]model.Neighbor, len(ids))
	for i := range ids {
		out[i] = model.Neighbor{ID: ids[i], Dist: dists[i]}
	}
	model.SortNeighbors(out)
	return out
}

// CandidateSet is the distributed server's per-query probe state: the
// positions replied to the probe round in flight, with kNN among them.
// Its capacity lives for one probe round: Clear releases the map, so a
// monitor does not hold its start-up probe's buckets, empty, for the run.
type CandidateSet struct {
	pos map[model.ObjectID]geo.Point
}

// NewCandidateSet returns an empty candidate set.
func NewCandidateSet() *CandidateSet {
	return &CandidateSet{}
}

// Len returns the number of candidates.
func (c *CandidateSet) Len() int { return len(c.pos) }

// Set records (or updates) a candidate's last reported position.
func (c *CandidateSet) Set(id model.ObjectID, p geo.Point) {
	if c.pos == nil {
		c.pos = make(map[model.ObjectID]geo.Point)
	}
	c.pos[id] = p
}

// Remove forgets a candidate. Removing an absent id is a no-op.
func (c *CandidateSet) Remove(id model.ObjectID) { delete(c.pos, id) }

// Clear removes all candidates and releases their storage.
func (c *CandidateSet) Clear() {
	c.pos = nil
}

// KNN returns the k nearest candidates to q, ascending by distance with
// ties broken by id.
func (c *CandidateSet) KNN(q geo.Point, k int) []model.Neighbor {
	if k <= 0 || len(c.pos) == 0 {
		return nil
	}
	best := pq.NewBoundedMax[model.ObjectID](k)
	for id, p := range c.pos {
		best.Offer(p.Dist(q), id)
	}
	dists, ids := best.Drain()
	out := make([]model.Neighbor, len(ids))
	for i := range ids {
		out[i] = model.Neighbor{ID: ids[i], Dist: dists[i]}
	}
	model.SortNeighbors(out)
	return out
}

// Visit calls fn for every candidate; iteration order is unspecified.
func (c *CandidateSet) Visit(fn func(id model.ObjectID, p geo.Point) bool) {
	for id, p := range c.pos {
		if !fn(id, p) {
			return
		}
	}
}
