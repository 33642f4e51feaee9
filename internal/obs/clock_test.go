package obs

import (
	"testing"
	"time"
)

// A Stamp times what time.Now and time.Since would: the elapsed time
// covers a sleep, and never runs backwards.
func TestStampElapsed(t *testing.T) {
	s := Now()
	time.Sleep(time.Millisecond)
	if d := s.Elapsed(); d < time.Millisecond {
		t.Fatalf("Elapsed = %v after a 1 ms sleep", d)
	}
	if later := Now(); later < s {
		t.Fatalf("Now went back from %v to %v", s, later)
	}
}

// BenchmarkStamp is the cost of timing one call the busy-time way:
// a Stamp at the start and its Elapsed at the end.
func BenchmarkStamp(b *testing.B) {
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		busy += Now().Elapsed()
	}
	_ = busy
}

// BenchmarkTimeNowSince is the same pair with time.Now at the start, for
// comparison: time.Now reads the wall clock as well.
func BenchmarkTimeNowSince(b *testing.B) {
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		busy += time.Since(time.Now())
	}
	_ = busy
}
