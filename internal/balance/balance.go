// Package balance decides when a spatially partitioned federation should
// move a grid-cell column between adjacent nodes to even out load.
//
// The decision engine is deliberately pure: callers feed it the current
// per-column owner array and each node's uplink count over the decision
// window, and it returns at most one column move. Applying the move —
// versioning the partition map, distributing it, migrating monitors and
// objects — is the cluster's job (internal/cluster); keeping the engine
// free of transport and server state makes every policy branch
// unit-testable.
//
// Policy: each node's load score is its share of the uplinks the whole
// federation handled over the window. The uplink is the paper's cost
// unit — a server works because objects report — and a count is exact and
// the same on every host, so a seeded run repeats its moves bit for bit.
// The balancer scans every adjacent strip pair and evaluates shifting one
// boundary column from the heavier to the lighter side, estimating the
// shifted load as the donor's score spread uniformly over its columns
// (so a donor of w columns can promise at most a 1/w gain). A move is
// proposed only if it strictly shrinks the pair's maximum score by at
// least MinGain (relative), which, together with the decision interval,
// prevents oscillation: under an unchanged load estimate, moving the
// column straight back could only raise the pair maximum it just
// lowered, so it can never clear the gain bar.
package balance

import "dmknn/internal/model"

// Config tunes the balancer. Zero values select the defaults.
type Config struct {
	// IntervalTicks is the minimum number of ticks between decisions
	// (default 16). Uplink counts are windowed to the same cadence, so a
	// longer interval trades reaction speed for steadier estimates.
	IntervalTicks int
	// MinGain is the minimum relative reduction of the hotter node's
	// score a move must promise (default 0.05).
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.IntervalTicks <= 0 {
		c.IntervalTicks = 16
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	return c
}

// Move is one proposed rebalance step: reassign column Col from node
// From to node To. Col is always a boundary column of From's strip
// adjacent to To's strip, so applying it keeps strips contiguous.
type Move struct {
	Col, From, To int
}

// Stats counts balancer activity.
type Stats struct {
	// Decisions counts evaluation rounds (interval boundaries reached
	// with a full load sample).
	Decisions uint64
	// Moves counts proposed column moves; Splits are the subset shed by
	// a donor holding more columns than the receiver (a hot wide strip
	// thinning), Merges the rest (a cold strip absorbing work from an
	// equal-or-narrower neighbor).
	Moves  uint64
	Splits uint64
	Merges uint64
}

// Balancer is the stateful decision engine: it holds the cadence clock
// and activity counters. Not safe for concurrent use; callers invoke it
// from their serial tick phase.
type Balancer struct {
	cfg       Config
	lastEval  model.Tick
	evaluated bool
	stats     Stats
}

// New returns a balancer with cfg's zero values defaulted.
func New(cfg Config) *Balancer {
	return &Balancer{cfg: cfg}
}

// Stats returns the activity counters.
func (b *Balancer) Stats() Stats { return b.stats }

// Due reports whether a decision interval has elapsed, without consuming
// it. Callers use it to skip sampling between decisions.
func (b *Balancer) Due(now model.Tick) bool {
	return !b.evaluated || now-b.lastEval >= model.Tick(b.cfg.IntervalTicks)
}

// Decide evaluates one rebalance decision. owners is the per-column
// owner array (contiguous ascending strips); uplinks holds each node's
// uplink count over the window. It returns at most one move — the
// adjacent-pair boundary-column shift with the best estimated gain — or
// false when no move clears MinGain, the window carried no uplinks, or
// the decision interval has not elapsed.
func (b *Balancer) Decide(now model.Tick, owners []int, uplinks []uint64) (Move, bool) {
	if !b.Due(now) {
		return Move{}, false
	}
	b.lastEval = now
	b.evaluated = true
	b.stats.Decisions++

	cfg := b.cfg.withDefaults()
	var total uint64
	for _, u := range uplinks {
		total += u
	}
	if total == 0 {
		return Move{}, false // no signal
	}
	scores := make([]float64, len(uplinks))
	for i, u := range uplinks {
		scores[i] = float64(u) / float64(total)
	}

	// Per-node strip extents and widths.
	nodes := len(uplinks)
	first := make([]int, nodes)
	last := make([]int, nodes)
	width := make([]int, nodes)
	for i := range first {
		first[i] = -1
	}
	for c, o := range owners {
		if o < 0 || o >= nodes {
			return Move{}, false
		}
		if first[o] < 0 {
			first[o] = c
		}
		last[o] = c
		width[o]++
	}
	for _, w := range width {
		if w == 0 {
			return Move{}, false
		}
	}

	best, bestGain := Move{}, 0.0
	for hi := 0; hi < nodes-1; hi++ {
		lo := hi + 1
		// Evaluate both directions across the strip boundary; only the
		// heavy→light one can gain, but computing both keeps the policy
		// symmetric by construction.
		for _, cand := range [2]Move{
			{Col: last[hi], From: hi, To: lo},
			{Col: first[lo], From: lo, To: hi},
		} {
			if width[cand.From] <= 1 {
				continue // a node never gives up its last column
			}
			share := scores[cand.From] / float64(width[cand.From])
			oldMax := max(scores[cand.From], scores[cand.To])
			newMax := max(scores[cand.From]-share, scores[cand.To]+share)
			gain := (oldMax - newMax) / oldMax
			if gain > bestGain {
				best, bestGain = cand, gain
			}
		}
	}
	if bestGain < cfg.MinGain {
		return Move{}, false
	}
	b.stats.Moves++
	if width[best.From] > width[best.To] {
		b.stats.Splits++
	} else {
		b.stats.Merges++
	}
	return best, true
}
