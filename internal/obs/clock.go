package obs

import "time"

// epoch anchors Stamp. time.Since of a time.Now reading reads only the
// monotonic clock, where time.Now also reads the wall clock: timing from
// a fixed epoch costs one clock read per end instead of two at the start.
var epoch = time.Now()

// Stamp is a reading of the monotonic clock: the time since epoch. Busy
// accounting (a server's BusyTime, the baselines' ServerTime, a batched
// flush) takes one at the start of the timed work and adds its Elapsed
// at the end, so every method in a comparison pays the same instrument.
type Stamp time.Duration

// Now reads the monotonic clock.
func Now() Stamp { return Stamp(time.Since(epoch)) }

// Elapsed returns the time since s was read.
func (s Stamp) Elapsed() time.Duration { return time.Duration(Now() - s) }
