// Package model defines the identifier and result types shared by every
// layer of the engine: object and query identifiers, discrete simulation
// time, and the neighbor/answer value types exchanged between the spatial
// index, the query processors, and the wire protocol.
//
// It is a leaf package: it may depend on internal/geo only, so that index,
// protocol, and simulation packages can all share these types without
// import cycles.
package model

import (
	"cmp"
	"fmt"
	"slices"

	"dmknn/internal/geo"
)

// ObjectID identifies a moving data object (e.g. one vehicle).
type ObjectID uint32

// QueryID identifies a registered continuous kNN query.
type QueryID uint32

// NoObject is the zero ObjectID, reserved to mean "none".
const NoObject ObjectID = 0

// Tick is a discrete simulation timestamp. One tick is one evaluation
// interval of the continuous queries (Δt seconds of simulated time).
type Tick int64

// Neighbor is one element of a kNN result: an object and its distance from
// the query point at evaluation time.
type Neighbor struct {
	ID   ObjectID
	Dist float64
}

// String implements fmt.Stringer.
func (n Neighbor) String() string { return fmt.Sprintf("%d@%.2f", n.ID, n.Dist) }

// Answer is the result of one evaluation of a kNN query: the k nearest
// objects in non-decreasing distance order. An Answer with fewer than k
// members means fewer than k objects exist (or, for a distributed method
// mid-recovery, that the answer is temporarily incomplete).
type Answer struct {
	Query     QueryID
	At        Tick
	Neighbors []Neighbor
}

// IDs returns the member object ids in answer order.
func (a Answer) IDs() []ObjectID {
	ids := make([]ObjectID, len(a.Neighbors))
	for i, n := range a.Neighbors {
		ids[i] = n.ID
	}
	return ids
}

// IDSet returns the member object ids as a set.
func (a Answer) IDSet() map[ObjectID]bool {
	s := make(map[ObjectID]bool, len(a.Neighbors))
	for _, n := range a.Neighbors {
		s[n.ID] = true
	}
	return s
}

// KthDist returns the distance of the farthest member, or 0 for an empty
// answer. For a complete answer this is the answer radius r_k.
func (a Answer) KthDist() float64 {
	if len(a.Neighbors) == 0 {
		return 0
	}
	return a.Neighbors[len(a.Neighbors)-1].Dist
}

// CompareNeighbors is the total order of SortNeighbors: distance (NaN
// first, as cmp.Compare places it), ties broken by object id.
func CompareNeighbors(a, b Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SortNeighbors orders ns by distance, breaking ties by object id so that
// results are deterministic across methods and runs.
func SortNeighbors(ns []Neighbor) { slices.SortFunc(ns, CompareNeighbors) }

// SameMembers reports whether two answers contain exactly the same object
// ids, ignoring order and distances.
func SameMembers(a, b Answer) bool {
	if len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	set := a.IDSet()
	for _, n := range b.Neighbors {
		if !set[n.ID] {
			return false
		}
	}
	return true
}

// ObjectState is the kinematic state of one moving object: its position and
// current velocity. Mobility models evolve it; query processors read it.
type ObjectState struct {
	ID  ObjectID
	Pos geo.Point
	Vel geo.Vector
}

// QuerySpec describes one continuous query to register: a kNN query when
// Range is zero (the K nearest objects), otherwise a fixed-radius range
// monitoring query (all objects within Range meters); plus the initial
// kinematic state of the query point (focal object).
type QuerySpec struct {
	ID    QueryID
	K     int
	Range float64
	Pos   geo.Point
	Vel   geo.Vector
}

// IsRange reports whether the spec is a range-monitoring query.
func (q QuerySpec) IsRange() bool { return q.Range > 0 }

// Validate reports a descriptive error when the spec is unusable.
func (q QuerySpec) Validate() error {
	if q.Range < 0 {
		return fmt.Errorf("model: query %d has negative range %v", q.ID, q.Range)
	}
	if q.K <= 0 && q.Range == 0 {
		return fmt.Errorf("model: query %d has non-positive k=%d and no range", q.ID, q.K)
	}
	return nil
}
