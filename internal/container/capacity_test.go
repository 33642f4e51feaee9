package container

import (
	"slices"
	"testing"
)

func TestTrim(t *testing.T) {
	for _, c := range []struct {
		name           string
		len, cap, keep int
		released       bool
	}{
		{"empty within keep", 0, 100, 100, false},
		{"empty above keep", 0, 101, 100, true},
		{"empty with nothing to keep", 0, 1, 0, true},
		{"nil", 0, 0, 0, false},
		{"pending at Slack times len", 25, 100, 0, false},
		{"pending above Slack times len", 24, 100, 0, true},
		{"pending above Slack times len within keep", 24, 100, 100, false},
		{"pending above both", 10, 1000, 200, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := make([]int, c.len, c.cap)
			for i := range s {
				s[i] = i + 1
			}
			got := Trim(s, c.keep)
			if !slices.Equal(got, s) {
				t.Fatalf("Trim changed the entries: %v, want %v", got, s)
			}
			kept := cap(got) > 0 && cap(s) > 0 && &got[:1][0] == &s[:1][0]
			switch {
			case c.released && (kept || cap(got) != c.len):
				t.Errorf("cap %d len %d keep %d: got cap %d (same array %v), want an exact-size copy", c.cap, c.len, c.keep, cap(got), kept)
			case c.released && c.len == 0 && got != nil:
				t.Errorf("released empty slice is %#v, want nil", got)
			case !c.released && cap(got) != c.cap:
				t.Errorf("cap %d len %d keep %d: cap became %d, want it kept", c.cap, c.len, c.keep, cap(got))
			}
		})
	}
}

func TestWindow(t *testing.T) {
	var w Window
	// A burst in the first round is the first window's high-water mark,
	// reported once the window's last round ends.
	for r := 1; r <= WindowRounds; r++ {
		n := 10
		if r == 1 {
			n = 2000
		}
		w.Observe(n)
		keep, due := w.EndRound()
		if due != (r == WindowRounds) {
			t.Fatalf("round %d: due = %v", r, due)
		}
		if due && keep != Slack*2000 {
			t.Fatalf("first window keeps %d, want %d", keep, Slack*2000)
		}
	}
	// The next window has forgotten the burst.
	for r := 1; r <= WindowRounds; r++ {
		w.Observe(10 + r%3)
		if keep, due := w.EndRound(); due && keep != Slack*12 {
			t.Fatalf("second window keeps %d, want %d", keep, Slack*12)
		}
	}
	// A window of idle rounds keeps nothing.
	for r := 1; r < WindowRounds; r++ {
		if _, due := w.EndRound(); due {
			t.Fatalf("idle round %d ended a window early", r)
		}
	}
	if keep, due := w.EndRound(); !due || keep != 0 {
		t.Fatalf("idle window: keep %d, due %v; want 0, true", keep, due)
	}
}
