package pq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMinBasic(t *testing.T) {
	h := NewMin[string](4)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	order := []string{"a", "b", "c"}
	for i, want := range order {
		pri, val := h.Pop()
		if val != want {
			t.Errorf("pop %d = %q (pri %v), want %q", i, val, pri, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestMinRandomOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewMin[int](0)
	const n = 2000
	pris := make([]float64, n)
	for i := range pris {
		pris[i] = rng.Float64() * 1000
		h.Push(pris[i], i)
	}
	sort.Float64s(pris)
	for i := 0; i < n; i++ {
		pri, _ := h.Pop()
		if pri != pris[i] {
			t.Fatalf("pop %d priority %v, want %v", i, pri, pris[i])
		}
	}
}

func TestMinDuplicatePriorities(t *testing.T) {
	h := NewMin[int](0)
	for i := 0; i < 10; i++ {
		h.Push(5, i)
	}
	h.Push(1, -1)
	if pri, val := h.Pop(); pri != 1 || val != -1 {
		t.Fatalf("expected unique min first, got %v %v", pri, val)
	}
	seen := map[int]bool{}
	for h.Len() > 0 {
		pri, val := h.Pop()
		if pri != 5 {
			t.Fatalf("unexpected priority %v", pri)
		}
		seen[val] = true
	}
	if len(seen) != 10 {
		t.Fatalf("lost values: %d distinct", len(seen))
	}
}

func TestBoundedMaxKeepsKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(20)
		n := rng.Intn(200)
		h := NewBoundedMax[int](k)
		all := make([]float64, n)
		for i := 0; i < n; i++ {
			all[i] = rng.Float64() * 100
			h.Offer(all[i], i)
		}
		sort.Float64s(all)
		want := all
		if n > k {
			want = all[:k]
		}
		pris, vals := h.Drain()
		if len(pris) != len(want) || len(vals) != len(want) {
			t.Fatalf("drained %d, want %d", len(pris), len(want))
		}
		for i := range want {
			if pris[i] != want[i] {
				t.Fatalf("trial %d: drained[%d] = %v, want %v", trial, i, pris[i], want[i])
			}
		}
		if h.Len() != 0 {
			t.Fatal("Drain did not empty")
		}
	}
}

func TestBoundedMaxOfferSemantics(t *testing.T) {
	h := NewBoundedMax[string](2)
	if h.Full() {
		t.Fatal("empty accumulator reported full")
	}
	if !h.Offer(5, "a") || !h.Offer(3, "b") {
		t.Fatal("offers below capacity must be kept")
	}
	if !h.Full() {
		t.Fatal("should be full")
	}
	if h.Worst() != 5 {
		t.Fatalf("Worst = %v, want 5", h.Worst())
	}
	if h.Offer(7, "c") {
		t.Fatal("worse candidate kept")
	}
	if h.Offer(5, "d") {
		t.Fatal("equal candidate should be rejected (keeps first)")
	}
	if !h.Offer(1, "e") {
		t.Fatal("better candidate rejected")
	}
	if h.Worst() != 3 {
		t.Fatalf("Worst after eviction = %v, want 3", h.Worst())
	}
	_, vals := h.Drain()
	if vals[0] != "e" || vals[1] != "b" {
		t.Fatalf("Drain order = %v", vals)
	}
}

func TestBoundedMaxPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewBoundedMax[int](0)
}

func BenchmarkBoundedMaxOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pris := make([]float64, 4096)
	for i := range pris {
		pris[i] = rng.Float64()
	}
	h := NewBoundedMax[int](16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Offer(pris[i&4095], i)
	}
}
