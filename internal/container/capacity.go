// Package container holds the capacity rule every per-round buffer of
// the medium and the server follows; its subpackage pq holds the heaps of
// the kNN search paths.
//
// A buffer refilled every round — a flush's delivery queue, a drain's
// arrival queue, a phase's captured sends — follows its traffic with
// hysteresis. A run's first ticks are a probe storm some twenty times its
// steady round, so buffers sized by the peak would hold most of the live
// heap for nothing; giving capacity back the moment it is idle would
// instead reallocate on every recurring burst. So at the end of every
// window of WindowRounds rounds, a buffer whose capacity exceeds Slack
// times the window's largest round (and Slack times what it still holds)
// is released, to regrow at the size traffic has now. A one-off burst is
// given back within two windows; steady traffic, or a burst that recurs
// within a window, never reallocates.
package container

const (
	// WindowRounds is how many rounds a Window spans.
	WindowRounds = 64
	// Slack is how many times its need a buffer may hold before Trim
	// releases it.
	Slack = 4
)

// Window tracks the largest round of the current window of rounds for
// the buffers one stream of traffic passes through. The zero value is an
// empty window.
type Window struct {
	high, rounds int
}

// Observe records a round that put n entries through the buffers.
func (w *Window) Observe(n int) { w.high = max(w.high, n) }

// EndRound counts one finished round. On the window's last it returns
// the capacity a buffer may keep, Slack times the window's largest round,
// and true, and starts the next window.
func (w *Window) EndRound() (keep int, due bool) {
	if w.rounds++; w.rounds < WindowRounds {
		return 0, false
	}
	keep = Slack * w.high
	w.high, w.rounds = 0, 0
	return keep, true
}

// Trim returns s when its capacity is at most max(keep, Slack·len(s)),
// and otherwise an exact-size copy of s: the entries still pending in it
// are kept, and the copy is nil when s is empty.
func Trim[T any](s []T, keep int) []T {
	if cap(s) <= max(keep, Slack*len(s)) {
		return s
	}
	return append([]T(nil), s...)
}
