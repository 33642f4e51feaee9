// Package metrics meters the quantities the evaluation reports: message
// counts and bytes by direction and kind, server processing time, and
// answer quality against ground truth.
//
// The counters are plain structs the simulated network updates inline; the
// experiment harness snapshots them per tick to build the series behind
// each figure.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// Direction classifies a message by who pays for it on the wireless
// medium.
type Direction uint8

// Message directions.
const (
	Uplink Direction = iota // client → server unicast
	Downlink
	Broadcast
	numDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("direction(%d)", uint8(d))
	}
}

// Directions lists all directions in presentation order.
func Directions() []Direction { return []Direction{Uplink, Downlink, Broadcast} }

// maxKind bounds the per-kind arrays; protocol kinds are small and dense.
const maxKind = 32

// Counters accumulates message traffic. The zero value is ready to use.
// Counters are not safe for concurrent use; the simulation is
// single-threaded per run and the TCP server wraps them in its own mutex.
type Counters struct {
	sent      [numDirections][maxKind]uint64
	sentBytes [numDirections][maxKind]uint64
	delivered [numDirections]uint64
	dropped   [numDirections]uint64
	evicted   uint64
}

// RecordSend notes that one message of the given kind and size was sent in
// the given direction. For broadcasts, "one message" is one cell-level
// transmission; a region broadcast covering c cells records c sends.
func (c *Counters) RecordSend(d Direction, k protocol.Kind, size int) {
	c.RecordSendN(d, k, size, 1)
}

// RecordSendN is n RecordSend calls in one: a region broadcast covering n
// cells meters its n transmissions with one add per counter.
func (c *Counters) RecordSendN(d Direction, k protocol.Kind, size, n int) {
	c.sent[d][k] += uint64(n)
	c.sentBytes[d][k] += uint64(n) * uint64(size)
}

// RecordDeliver notes a successful delivery to one recipient.
func (c *Counters) RecordDeliver(d Direction) { c.delivered[d]++ }

// RecordDrop notes a message lost in transit.
func (c *Counters) RecordDrop(d Direction) { c.dropped[d]++ }

// RecordEviction notes a client connection the transport terminated for
// liveness reasons: a handshake that never completed, a stalled reader
// that head-of-line-blocked writes, or an idle session reaped by policy.
func (c *Counters) RecordEviction() { c.evicted++ }

// Evictions returns the number of liveness evictions recorded.
func (c *Counters) Evictions() uint64 { return c.evicted }

// Sent returns the number of messages sent in direction d (all kinds).
func (c *Counters) Sent(d Direction) uint64 {
	var total uint64
	for _, v := range c.sent[d] {
		total += v
	}
	return total
}

// SentKind returns the number of messages of kind k sent in direction d.
func (c *Counters) SentKind(d Direction, k protocol.Kind) uint64 {
	return c.sent[d][k]
}

// SentBytes returns the bytes sent in direction d (all kinds).
func (c *Counters) SentBytes(d Direction) uint64 {
	var total uint64
	for _, v := range c.sentBytes[d] {
		total += v
	}
	return total
}

// Delivered returns deliveries in direction d.
func (c *Counters) Delivered(d Direction) uint64 { return c.delivered[d] }

// Dropped returns drops in direction d.
func (c *Counters) Dropped(d Direction) uint64 { return c.dropped[d] }

// Snapshot returns a copy of the current counter state.
func (c *Counters) Snapshot() Counters { return *c }

// Diff returns the traffic accumulated between the older snapshot and c.
func (c *Counters) Diff(older Counters) Counters {
	var out Counters
	for d := Direction(0); d < numDirections; d++ {
		for k := 0; k < maxKind; k++ {
			out.sent[d][k] = c.sent[d][k] - older.sent[d][k]
			out.sentBytes[d][k] = c.sentBytes[d][k] - older.sentBytes[d][k]
		}
		out.delivered[d] = c.delivered[d] - older.delivered[d]
		out.dropped[d] = c.dropped[d] - older.dropped[d]
	}
	out.evicted = c.evicted - older.evicted
	return out
}

// BreakdownTable renders a per-kind, per-direction message table, omitting
// all-zero rows. It is the body of the "message breakdown" experiment
// table.
func (c *Counters) BreakdownTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s %12s\n", "kind", "uplink", "downlink", "broadcast")
	for _, k := range protocol.Kinds() {
		u, dn, br := c.sent[Uplink][k], c.sent[Downlink][k], c.sent[Broadcast][k]
		if u == 0 && dn == 0 && br == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %12d %12d %12d\n", k, u, dn, br)
	}
	fmt.Fprintf(&b, "%-18s %12d %12d %12d\n", "TOTAL",
		c.Sent(Uplink), c.Sent(Downlink), c.Sent(Broadcast))
	return b.String()
}

// ---------------------------------------------------------------------------
// Answer quality audit

// Audit accumulates per-tick answer quality against ground truth. The zero
// value is ready to use.
type Audit struct {
	evaluations  int
	exact        int
	sumPrecision float64
	sumRecall    float64
	sumRadiusErr float64 // relative error of the k-th distance
	worstRecall  float64
	initialized  bool
}

// Observe compares one produced answer with the ground truth for the same
// query and tick, and accumulates quality statistics.
func (a *Audit) Observe(got, truth model.Answer) {
	a.evaluations++
	gotSet := got.IDSet()
	truthSet := truth.IDSet()
	inter := 0
	for id := range gotSet {
		if truthSet[id] {
			inter++
		}
	}
	precision, recall := 1.0, 1.0
	if len(gotSet) > 0 {
		precision = float64(inter) / float64(len(gotSet))
	} else if len(truthSet) > 0 {
		precision = 0
	}
	if len(truthSet) > 0 {
		recall = float64(inter) / float64(len(truthSet))
	}
	if model.SameMembers(got, truth) {
		a.exact++
	}
	a.sumPrecision += precision
	a.sumRecall += recall
	if !a.initialized || recall < a.worstRecall {
		a.worstRecall = recall
		a.initialized = true
	}
	tk := truth.KthDist()
	if tk > 0 {
		a.sumRadiusErr += math.Abs(got.KthDist()-tk) / tk
	}
}

// Merge folds the observations accumulated in o into a, as if every
// answer o observed had been observed by a instead. It lets parallel
// audit workers accumulate into private Audits and combine them after
// their barrier; merging in a fixed (worker-count-independent) order
// keeps the floating-point sums deterministic.
func (a *Audit) Merge(o *Audit) {
	a.evaluations += o.evaluations
	a.exact += o.exact
	a.sumPrecision += o.sumPrecision
	a.sumRecall += o.sumRecall
	a.sumRadiusErr += o.sumRadiusErr
	if o.initialized && (!a.initialized || o.worstRecall < a.worstRecall) {
		a.worstRecall = o.worstRecall
		a.initialized = true
	}
}

// Reset returns the audit to its zero state so the accumulator can be
// reused without reallocating.
func (a *Audit) Reset() { *a = Audit{} }

// Evaluations returns how many answers were audited.
func (a *Audit) Evaluations() int { return a.evaluations }

// Exactness returns the fraction of audited answers whose membership
// exactly matched ground truth. It returns 1 for an empty audit.
func (a *Audit) Exactness() float64 {
	if a.evaluations == 0 {
		return 1
	}
	return float64(a.exact) / float64(a.evaluations)
}

// MeanPrecision returns the average precision over all audited answers.
func (a *Audit) MeanPrecision() float64 {
	if a.evaluations == 0 {
		return 1
	}
	return a.sumPrecision / float64(a.evaluations)
}

// MeanRecall returns the average recall over all audited answers.
func (a *Audit) MeanRecall() float64 {
	if a.evaluations == 0 {
		return 1
	}
	return a.sumRecall / float64(a.evaluations)
}

// WorstRecall returns the lowest per-answer recall seen (1 if none).
func (a *Audit) WorstRecall() float64 {
	if !a.initialized {
		return 1
	}
	return a.worstRecall
}

// MeanRadiusError returns the mean relative error of the k-th neighbor
// distance versus ground truth.
func (a *Audit) MeanRadiusError() float64 {
	if a.evaluations == 0 {
		return 0
	}
	return a.sumRadiusErr / float64(a.evaluations)
}

// ---------------------------------------------------------------------------
// Numeric series

// Series collects one scalar sample per tick and reports summary
// statistics; the experiment harness uses one per (metric, run).
type Series struct {
	values []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.values = append(s.values, v) }

// Merge appends every sample of o to s in order. Together with
// Audit.Merge it supports the merge-after-barrier pattern of parallel
// collectors: each worker fills a private series, and the owner merges
// them in a fixed order.
func (s *Series) Merge(o *Series) { s.values = append(s.values, o.values...) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	var max float64
	for i, v := range s.values {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Values returns the underlying samples (not a copy).
func (s *Series) Values() []float64 { return s.values }

// ---------------------------------------------------------------------------
// Deterministic fixed-bucket histogram

// Histogram counts samples into fixed buckets so distribution summaries
// (quantiles, CDFs) stay byte-deterministic across runs and worker
// counts: only integer bucket counts and one float sum accumulate, and
// Merge in a fixed order reproduces the single-collector result exactly.
// Bucket i covers (bounds[i-1], bounds[i]]; a final implicit overflow
// bucket covers everything above the last bound.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1, last is overflow
	total  uint64
	sum    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending bucket
// bounds. It panics on unsorted or empty bounds: bucket layouts are
// fixed at construction so that merging histograms is well-defined.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// TickBuckets is the shared bound set for tick-valued distributions
// (answer staleness, uplink inter-report gaps): fine steps near zero
// where the protocol should live, coarsening geometrically out to the
// resync horizon.
func TickBuckets() []float64 {
	return []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}
}

// LatencyBuckets is the shared bound set for per-tick server latency in
// microseconds.
func LatencyBuckets() []float64 {
	return []float64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	i, j := 0, len(h.bounds)
	for i < j { // first bound >= v
		m := (i + j) / 2
		if h.bounds[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper bound on the p-quantile (0 <= p <= 1): the
// upper bound of the bucket holding the p-th sample, or the observed
// maximum for the overflow bucket. Bucket bounds rather than
// interpolation keep the value exactly reproducible.
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Buckets returns (bounds, counts) copies for rendering a CDF. The
// counts slice has one extra trailing overflow entry.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	c := make([]uint64, len(h.counts))
	copy(c, h.counts)
	return b, c
}

// Merge folds o into h. Both must share the same bucket layout; like
// Audit.Merge, merging private per-worker histograms in a fixed order
// keeps the result deterministic.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic("metrics: merging histograms with different bucket layouts")
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears every sample, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
}
