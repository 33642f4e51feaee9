// Package pq provides small generic binary heaps used by the kNN search
// paths: a min-heap for best-first cell expansion ordered by minimum
// distance, and a bounded max-heap that maintains the current k nearest
// candidates.
//
// Both are deliberately simpler and faster for this workload than
// container/heap: no interface indirection, no interface{} boxing, and the
// bounded heap fuses the "push then pop if over capacity" sequence that
// dominates kNN inner loops.
package pq

// Min is a binary min-heap of items ordered by a float64 priority.
type Min[T any] struct {
	items []entry[T]
}

type entry[T any] struct {
	pri float64
	val T
}

// NewMin returns an empty min-heap with the given initial capacity.
func NewMin[T any](capacity int) *Min[T] {
	return &Min[T]{items: make([]entry[T], 0, capacity)}
}

// Len returns the number of items in the heap.
func (h *Min[T]) Len() int { return len(h.items) }

// Push adds val with the given priority.
func (h *Min[T]) Push(pri float64, val T) {
	h.items = append(h.items, entry[T]{pri, val})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the smallest priority. It must not
// be called on an empty heap.
func (h *Min[T]) Pop() (float64, T) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.pri, top.val
}

func (h *Min[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].pri <= h.items[i].pri {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Min[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].pri < h.items[smallest].pri {
			smallest = l
		}
		if r < n && h.items[r].pri < h.items[smallest].pri {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// BoundedMax is a max-heap holding at most K items: the K smallest
// priorities ever offered. It is the classic top-k accumulator for kNN:
// offer every candidate, and the heap keeps the k nearest.
type BoundedMax[T any] struct {
	k     int
	items []entry[T]
}

// NewBoundedMax returns a top-k accumulator for the k smallest priorities.
// k must be positive.
func NewBoundedMax[T any](k int) *BoundedMax[T] {
	if k <= 0 {
		panic("pq: BoundedMax requires k > 0")
	}
	return &BoundedMax[T]{k: k, items: make([]entry[T], 0, k)}
}

// Len returns the number of items currently held (<= k).
func (h *BoundedMax[T]) Len() int { return len(h.items) }

// Full reports whether the accumulator holds k items.
func (h *BoundedMax[T]) Full() bool { return len(h.items) == h.k }

// Worst returns the largest priority currently held (the k-th best so
// far). It must not be called on an empty accumulator.
func (h *BoundedMax[T]) Worst() float64 { return h.items[0].pri }

// Offer considers a candidate. It is accepted if the accumulator is not yet
// full or if pri improves on the current worst; in the latter case the
// worst is evicted. Returns whether the candidate was kept.
func (h *BoundedMax[T]) Offer(pri float64, val T) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, entry[T]{pri, val})
		h.up(len(h.items) - 1)
		return true
	}
	if pri >= h.items[0].pri {
		return false
	}
	h.items[0] = entry[T]{pri, val}
	h.down(0)
	return true
}

// Drain removes all items and returns them ordered by ascending priority.
// The accumulator is empty afterwards.
func (h *BoundedMax[T]) Drain() (pris []float64, vals []T) {
	n := len(h.items)
	pris = make([]float64, n)
	vals = make([]T, n)
	for i := n - 1; i >= 0; i-- {
		pris[i], vals[i] = h.popMax()
	}
	return pris, vals
}

func (h *BoundedMax[T]) popMax() (float64, T) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.pri, top.val
}

func (h *BoundedMax[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].pri >= h.items[i].pri {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *BoundedMax[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].pri > h.items[largest].pri {
			largest = l
		}
		if r < n && h.items[r].pri > h.items[largest].pri {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}
