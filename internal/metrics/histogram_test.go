package metrics

import "testing"

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0, 1, 1.5, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	// (-inf,1]=2  (1,2]=2  (2,4]=1  (4,8]=1  overflow=2
	want := []uint64{2, 2, 1, 1, 2}
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2 (upper bound of the 4th sample's bucket)", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want first bucket bound 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want observed max 100", got)
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %v, want 100", h.Max())
	}
	if got := h.Mean(); got != (0+1+1.5+2+3+5+9+100)/8 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(TickBuckets()...)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {3, 2}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(TickBuckets()...)
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(7) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f objects/op, want 0", allocs)
	}
}
