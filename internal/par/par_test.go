package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index is visited exactly once, and every worker id lies in
// [0, min(w, n)), for each width: none, GOMAXPROCS, one, two, one per
// item and more workers than items.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{-1, 0, 1, 2, n, n + 3} {
			width := workers
			if width <= 0 {
				width = runtime.GOMAXPROCS(0)
			}
			width = min(width, n)
			visits := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			badWorker.Store(-1)
			Each(n, workers, func(w, i int) {
				if w < 0 || w >= width {
					badWorker.Store(int32(w))
				}
				visits[i].Add(1)
			})
			if w := badWorker.Load(); w >= 0 {
				t.Errorf("n=%d workers=%d: worker id %d outside [0, %d)", n, workers, w, width)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

// One worker is the calling goroutine walking 0…n-1 in order, and it
// allocates nothing.
func TestEachOneWorkerInlineInOrder(t *testing.T) {
	const n = 64
	var order []int
	record := func(w, i int) {
		if w != 0 {
			t.Errorf("worker %d, want 0", w)
		}
		order = append(order, i)
	}
	Each(n, 1, record)
	for i, got := range order {
		if got != i {
			t.Fatalf("visit %d was index %d", i, got)
		}
	}
	if len(order) != n {
		t.Fatalf("visited %d indices, want %d", len(order), n)
	}
	sum := 0
	add := func(_, i int) { sum += i }
	if avg := testing.AllocsPerRun(100, func() { Each(n, 1, add) }); avg != 0 {
		t.Errorf("one-worker Each allocates %.2f times per call, want 0", avg)
	}
}
