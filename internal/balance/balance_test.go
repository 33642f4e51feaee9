package balance

import (
	"testing"

	"dmknn/internal/model"
)

// evenOwners builds the NewPartition-style owner array: cols divided
// over nodes as evenly as possible, leading strips take the remainder.
func evenOwners(cols, nodes int) []int {
	owners := make([]int, cols)
	base, rem := cols/nodes, cols%nodes
	col := 0
	for i := 0; i < nodes; i++ {
		w := base
		if i < rem {
			w++
		}
		for j := 0; j < w; j++ {
			owners[col+j] = i
		}
		col += w
	}
	return owners
}

func TestHotNodeShedsBoundaryColumn(t *testing.T) {
	b := New(Config{})
	owners := evenOwners(16, 4) // 4 columns each
	uplinks := []uint64{800, 50, 50, 100}
	mv, ok := b.Decide(0, owners, uplinks)
	if !ok {
		t.Fatal("no move proposed for a 8:1 hot node")
	}
	if mv.From != 0 || mv.To != 1 {
		t.Fatalf("move %+v, want node 0 shedding to node 1", mv)
	}
	if mv.Col != 3 {
		t.Fatalf("move %+v, want node 0's boundary column 3", mv)
	}
	st := b.Stats()
	if st.Decisions != 1 || st.Moves != 1 {
		t.Fatalf("stats %+v, want 1 decision, 1 move", st)
	}
}

func TestHotMiddleNodeShedsToAdjacent(t *testing.T) {
	b := New(Config{})
	owners := evenOwners(16, 4)
	uplinks := []uint64{50, 800, 50, 50}
	mv, ok := b.Decide(0, owners, uplinks)
	if !ok {
		t.Fatal("no move proposed")
	}
	if mv.From != 1 {
		t.Fatalf("move %+v, want donor 1", mv)
	}
	if mv.To != 0 && mv.To != 2 {
		t.Fatalf("move %+v, want an adjacent receiver", mv)
	}
	if mv.Col != 4 && mv.Col != 7 {
		t.Fatalf("move %+v, want a boundary column of strip 1 ({4,7})", mv)
	}
}

func TestBalancedLoadNoMove(t *testing.T) {
	b := New(Config{})
	owners := evenOwners(16, 4)
	uplinks := []uint64{100, 100, 100, 100}
	if mv, ok := b.Decide(0, owners, uplinks); ok {
		t.Fatalf("balanced load produced move %+v", mv)
	}
	if st := b.Stats(); st.Decisions != 1 || st.Moves != 0 {
		t.Fatalf("stats %+v, want 1 decision, 0 moves", st)
	}
}

func TestZeroLoadNoMove(t *testing.T) {
	b := New(Config{})
	if mv, ok := b.Decide(0, evenOwners(8, 2), make([]uint64, 2)); ok {
		t.Fatalf("zero load produced move %+v", mv)
	}
}

func TestIntervalGatesDecisions(t *testing.T) {
	b := New(Config{IntervalTicks: 10})
	owners := evenOwners(8, 2)
	hot := []uint64{900, 100}
	if _, ok := b.Decide(0, owners, hot); !ok {
		t.Fatal("first decision gated")
	}
	for now := model.Tick(1); now < 10; now++ {
		if b.Due(now) {
			t.Fatalf("Due(%d) = true inside the interval", now)
		}
		if _, ok := b.Decide(now, owners, hot); ok {
			t.Fatalf("decision at tick %d inside the interval", now)
		}
	}
	if !b.Due(10) {
		t.Fatal("Due(10) = false at the interval boundary")
	}
	if _, ok := b.Decide(10, owners, hot); !ok {
		t.Fatal("decision gated at the interval boundary")
	}
	if st := b.Stats(); st.Decisions != 2 {
		t.Fatalf("decisions = %d, want 2 (gated calls do not count)", st.Decisions)
	}
}

func TestDonorKeepsLastColumn(t *testing.T) {
	b := New(Config{})
	owners := []int{0, 1, 1, 1} // node 0 holds a single hot column
	uplinks := []uint64{1000, 10}
	if mv, ok := b.Decide(0, owners, uplinks); ok {
		t.Fatalf("single-column donor shed its strip: %+v", mv)
	}
}

func TestMinGainSuppressesMarginalMoves(t *testing.T) {
	b := New(Config{MinGain: 0.5})
	owners := evenOwners(8, 2)
	uplinks := []uint64{550, 450}
	if mv, ok := b.Decide(0, owners, uplinks); ok {
		t.Fatalf("marginal imbalance cleared MinGain 0.5: %+v", mv)
	}
}

func TestSplitAndMergeCounters(t *testing.T) {
	b := New(Config{IntervalTicks: 1})
	// Wide hot strip sheds to a narrow neighbor: a split.
	if _, ok := b.Decide(0, []int{0, 0, 0, 1}, []uint64{900, 100}); !ok {
		t.Fatal("wide hot strip did not shed")
	}
	// Narrow hot strip sheds to a wide neighbor: a merge.
	if _, ok := b.Decide(1, []int{0, 0, 1, 1, 1, 1}, []uint64{900, 100}); !ok {
		t.Fatal("narrow hot strip did not shed")
	}
	st := b.Stats()
	if st.Splits != 1 || st.Merges != 1 {
		t.Fatalf("stats %+v, want 1 split and 1 merge", st)
	}
}

func TestMalformedOwnersNoMove(t *testing.T) {
	b := New(Config{IntervalTicks: 1})
	hot := []uint64{900, 100}
	if _, ok := b.Decide(0, []int{0, 0, 5, 0}, hot); ok {
		t.Fatal("out-of-range owner accepted")
	}
	if _, ok := b.Decide(1, []int{0, 0, 0, 0}, hot); ok {
		t.Fatal("node with no columns accepted")
	}
}

func TestNoImmediateBounceBack(t *testing.T) {
	// After a move, re-deciding on the same (proportionally shifted)
	// uplink counts must not move the column back: the oscillation guard.
	b := New(Config{IntervalTicks: 1})
	owners := evenOwners(16, 2)
	uplinks := []uint64{700, 300}
	mv, ok := b.Decide(0, owners, uplinks)
	if !ok {
		t.Fatal("no initial move")
	}
	owners[mv.Col] = mv.To
	const shifted = 700 / 8
	uplinks = []uint64{700 - shifted, 300 + shifted}
	if mv2, ok := b.Decide(1, owners, uplinks); ok && mv2.Col == mv.Col && mv2.To == mv.From {
		t.Fatalf("column %d bounced straight back", mv.Col)
	}
}
