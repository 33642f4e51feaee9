package simnet

import (
	"dmknn/internal/metrics"
	"dmknn/internal/transport"
)

// BroadcastBatch implements transport.BatchServerSide: it accepts a
// drain's worth of region broadcasts in one call. A batch is one queue
// entry: metering, coverage, audience, fan-out order, and loss draws are
// identical to calling Broadcast once per item — each item is metered by
// the same helper at send time and delivered, in item order, through the
// same gather and fan-out (deliverBroadcast) — with two deliberate
// queue-level deviations a batching caller accepts: the whole batch
// shares one jitter draw (every item arrives at the same tick) and one
// duplication draw (the fault duplicates the batch, not individual
// items). With those faults off the batch is byte-identical on the wire
// to the per-item loop — the property tests in internal/shard pin exactly
// that.
func (s serverSide) BroadcastBatch(items []transport.BroadcastItem) {
	// Items whose region covers no accepted cell are dropped, as Broadcast
	// drops them. kept is allocated per call, not taken from a scratch: the
	// queue (and a duplicate entry, which shares it) holds it until
	// delivery, and the caller reuses items as soon as this returns.
	kept := make([]transport.BroadcastItem, 0, len(items))
	for _, it := range items {
		if s.meterBroadcast(it.Region, it.Msg) {
			kept = append(kept, it)
		}
	}
	if len(kept) > 0 {
		s.n.enqueue(queued{dir: metrics.Broadcast, filter: s.filter, batch: kept})
	}
}

// RNGBurn draws and returns one value from the base-loss generator and
// one from the fault generator. It exists for equivalence tests, which
// call it once at the end of two runs to assert both pairs of streams
// sit at the same position; the draws advance the streams, so production
// code must never call it.
func (n *Network) RNGBurn() (base, fault float64) {
	return n.rng.Float64(), n.frng.Float64()
}
