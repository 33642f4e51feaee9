// Package par is the repository's one worker pool: the shard phases, the
// simulator's audit and the experiment runner fan their independent work
// items out through Each.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn once for every i in [0, n) on min(workers, n) workers,
// which pull indices from a shared counter; workers <= 0 means
// runtime.GOMAXPROCS. worker is the calling worker's id in
// [0, min(workers, n)): fn may index per-worker scratch with it. The
// calling goroutine is worker 0, so w workers start w-1 goroutines, and
// with one worker Each runs inline, in index order, and allocates
// nothing. Each returns once every call has returned.
func Each(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	// The last goroutine started waits in this P's runnext slot, which
	// an idle P steals only after a sleep: a phase of two 85 µs items
	// took ~125 µs without this yield and ~85 µs with it (2-core Linux
	// VM). Yielding runs that goroutine here at once and puts the caller
	// on the global queue, which an idle P takes without a sleep.
	runtime.Gosched()
	work(0)
	wg.Wait()
}
