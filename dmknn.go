// Package dmknn is a distributed moving-k-nearest-neighbor query engine
// over moving objects — a reproduction of "Distributed Processing of
// Moving K-Nearest-Neighbor Query on Moving Objects" (ICDE 2007).
//
// A population of moving objects (vehicles, couriers, phones) is
// monitored by continuous kNN queries whose focal points also move. The
// engine answers every registered query at every evaluation interval
// while sending dramatically fewer wireless uplink messages than the
// classic stream-everything design: the objects themselves take part in
// query processing, transmitting only when an event near a query can
// change its answer. See DESIGN.md for the protocol and the formal
// guarantees (the default configuration maintains provably exact answers
// under an ideal network).
//
// Two ways to use the package:
//
//   - Simulation (Run): evaluate the protocol and the centralized
//     baselines on synthetic workloads with exact message metering and a
//     ground-truth auditor. This regenerates every figure and table of
//     the paper's evaluation (see EXPERIMENTS.md and cmd/dknn-bench).
//
//   - Deployment (ListenAndServe, DialObject, DialQuery): run the same
//     protocol state machines over real TCP connections, with the query
//     server as a daemon and object/query agents embedded in client
//     processes.
package dmknn

import (
	"fmt"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Vector is a velocity in meters per second.
type Vector struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle given by its corners.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// ObjectID identifies a moving data object.
type ObjectID uint32

// QueryID identifies a continuous kNN query.
type QueryID uint32

// Neighbor is one member of a query answer.
type Neighbor struct {
	ID       ObjectID
	Distance float64
}

// Answer is the current result of one continuous query: the k nearest
// objects in ascending distance order, as of the given evaluation tick.
type Answer struct {
	Query     QueryID
	Tick      int64
	Neighbors []Neighbor
}

// String implements fmt.Stringer.
func (a Answer) String() string {
	return fmt.Sprintf("query %d @%d: %v", a.Query, a.Tick, a.Neighbors)
}

func (p Point) internal() geo.Point   { return geo.Pt(p.X, p.Y) }
func (v Vector) internal() geo.Vector { return geo.Vec(v.X, v.Y) }

func (r Rect) internal() geo.Rect {
	return geo.NewRect(geo.Pt(r.MinX, r.MinY), geo.Pt(r.MaxX, r.MaxY))
}

func fromAnswer(a model.Answer) Answer {
	out := Answer{Query: QueryID(a.Query), Tick: int64(a.At)}
	out.Neighbors = make([]Neighbor, len(a.Neighbors))
	for i, n := range a.Neighbors {
		out.Neighbors[i] = Neighbor{ID: ObjectID(n.ID), Distance: n.Dist}
	}
	return out
}

// Protocol carries the DKNN protocol knobs; see DESIGN.md for how each
// shapes the traffic/accuracy tradeoff. The zero value selects the
// defaults.
type Protocol struct {
	// HorizonTicks is the maximum number of evaluation intervals between
	// monitor refreshes of one query. 0 (default) derives each query's
	// own horizon from its answer radius at every refresh: the fewest
	// intervals whose safety slack reaches that radius, at most 20.
	HorizonTicks int
	// ThetaInside is the in-boundary movement threshold in meters; 0
	// (default) keeps answers exact under an ideal network.
	ThetaInside float64
	// QueryDeviation is the focal client's track-correction threshold in
	// meters (default 0: correct on every velocity change).
	QueryDeviation float64
	// AnswerSlack is the buffer size m: the server monitors k+m objects
	// per query (default 10).
	AnswerSlack int
	// ResyncTicks, when positive, forces a periodic full state rebuild
	// per query; useful on lossy media (default 0: disabled).
	ResyncTicks int
	// MinProbeRadius is the initial probe ring in meters (default 200).
	MinProbeRadius float64
	// DeltaAnswers delivers answer changes as incremental updates
	// instead of full answers, cutting downlink bytes (default off).
	DeltaAnswers bool
}
