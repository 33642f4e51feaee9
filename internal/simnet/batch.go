package simnet

import (
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// BroadcastBatch implements transport.BatchServerSide: it accepts a
// drain's worth of region broadcasts in one call. Metering, coverage,
// audience, fan-out order, and loss draws are identical to calling
// Broadcast once per item, with two deliberate queue-level deviations a
// batching caller accepts: the whole batch shares one jitter draw (every
// item arrives at the same tick) and one duplication draw (the fault
// duplicates the batch, not individual items). With those faults off the
// batch is byte-identical on the wire to the per-item loop — the
// property tests in internal/shard pin exactly that.
//
// The payoff over the loop is on the delivery side: the batch delivers
// back-to-back in one queue entry, so the medium can reuse each grid
// cell's sorted audience snapshot across every item that covers it
// (sortedCellView) — each cell is sorted once per drain instead of once
// per install.
func (s serverSide) BroadcastBatch(items []transport.BroadcastItem) {
	n := s.n
	// Meter exactly as the per-item loop would, dropping items whose
	// region covers no accepted cell, and keep the rest. The kept slice is
	// a copy: the queue retains it until delivery and the caller reuses
	// its scratch.
	var kept []transport.BroadcastItem
	for _, it := range items {
		size := protocol.EncodedSize(it.Msg)
		cells := 0
		n.cfg.Geometry.VisitCellsIntersecting(it.Region, func(c grid.Cell) bool {
			if s.filter == nil || s.filter(c) {
				cells++
			}
			return true
		})
		for i := 0; i < cells; i++ {
			n.counters.RecordSend(metrics.Broadcast, it.Msg.Kind(), size)
		}
		if cells == 0 {
			continue
		}
		if n.trace != nil {
			n.emit(obs.EvNetSend, metrics.Broadcast, 0, it.Msg.Kind())
		}
		kept = append(kept, it)
	}
	if len(kept) == 0 {
		return
	}
	n.enqueue(queued{dir: metrics.Broadcast, filter: s.filter, batch: kept})
}

// deliverBroadcastBatch fans each item of the batch out in item order.
// Per item the audience, its ordering, and the loss draws match the
// non-batched path exactly; the saving is that the merged gather reuses
// per-cell sorted snapshots across items.
func (n *Network) deliverBroadcastBatch(q queued) int {
	delivered := 0
	for _, it := range q.batch {
		rec := n.gatherMerged(it.Region, q.filter)
		delivered += n.fanout(rec, it.Msg)
	}
	return delivered
}

// gatherMerged returns the id-sorted audience of the region as a merge
// of its cells' sorted snapshots. Each attached client sits in exactly
// one cell, so the snapshots are disjoint and the merge equals sorting
// the concatenation — the exact audience deliverBroadcast computes — at
// the cost of a linear head scan over the handful of cells a monitoring
// circle covers. The result lives in the recipients scratch until the
// next gather.
func (n *Network) gatherMerged(region geo.Circle, filter func(grid.Cell) bool) []entry {
	lists := n.mergeLists[:0]
	n.cfg.Geometry.VisitCellsIntersecting(region, func(c grid.Cell) bool {
		if filter == nil || filter(c) {
			if ids := n.sortedCellView(n.cfg.Geometry.CellIndex(c)); len(ids) > 0 {
				lists = append(lists, ids)
			}
		}
		return true
	})
	n.mergeLists = lists
	rec := n.recipients[:0]
	switch len(lists) {
	case 0:
	case 1:
		rec = append(rec, lists[0]...)
	default:
		for {
			best := -1
			for li := range lists {
				if len(lists[li]) == 0 {
					continue
				}
				if best == -1 || lists[li][0] < lists[best][0] {
					best = li
				}
			}
			if best == -1 {
				break
			}
			rec = append(rec, lists[best][0])
			lists[best] = lists[best][1:]
		}
	}
	n.recipients = rec
	return rec
}

// sortedCellView returns cell idx's membership sorted by id, from the
// memoized snapshot when it is still valid. The snapshot is a copy —
// the order of cells[idx] is load-bearing for swap-with-last removal, so
// it is never sorted in place — and stays valid across flushes until
// placeSlot or removeFromCell touches the cell.
func (n *Network) sortedCellView(idx int) []entry {
	if n.cellSorted[idx] {
		return n.cellSortCache[idx]
	}
	v := append(n.cellSortCache[idx][:0], n.cells[idx]...)
	slices.Sort(v)
	n.cellSortCache[idx] = v
	n.cellSorted[idx] = true
	return v
}

// RNGBurn draws and returns one value from the base-loss generator and
// one from the fault generator. It exists for equivalence tests, which
// call it once at the end of two runs to assert both pairs of streams
// sit at the same position; the draws advance the streams, so production
// code must never call it.
func (n *Network) RNGBurn() (base, fault float64) {
	return n.rng.Float64(), n.frng.Float64()
}
