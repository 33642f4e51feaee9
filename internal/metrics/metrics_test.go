package metrics

import (
	"strings"
	"testing"

	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.RecordSend(Uplink, protocol.KindLocationReport, 45)
	c.RecordSend(Uplink, protocol.KindLocationReport, 45)
	c.RecordSend(Downlink, protocol.KindAnswerUpdate, 100)
	c.RecordSend(Broadcast, protocol.KindMonitorInstall, 61)
	c.RecordDeliver(Uplink)
	c.RecordDrop(Uplink)

	if got := c.Sent(Uplink); got != 2 {
		t.Errorf("Sent(Uplink) = %d", got)
	}
	if got := c.SentKind(Uplink, protocol.KindLocationReport); got != 2 {
		t.Errorf("SentKind = %d", got)
	}
	if got := c.SentKind(Uplink, protocol.KindProbeReply); got != 0 {
		t.Errorf("unrelated kind = %d", got)
	}
	if got := c.SentBytes(Uplink); got != 90 {
		t.Errorf("SentBytes = %d", got)
	}
	if c.Sent(Downlink) != 1 || c.Sent(Broadcast) != 1 {
		t.Error("direction separation broken")
	}
	if c.Delivered(Uplink) != 1 || c.Dropped(Uplink) != 1 {
		t.Error("deliver/drop accounting broken")
	}
}

// RecordSendN must be indistinguishable from n RecordSend calls, n = 0
// included.
func TestRecordSendNEqualsRepeatedRecordSend(t *testing.T) {
	var loop, once Counters
	for _, n := range []int{0, 1, 157} {
		for i := 0; i < n; i++ {
			loop.RecordSend(Broadcast, protocol.KindMonitorInstall, 61)
		}
		once.RecordSendN(Broadcast, protocol.KindMonitorInstall, 61, n)
		if loop != once {
			t.Fatalf("after n = %d: %d sends and %d bytes, want %d and %d", n,
				once.Sent(Broadcast), once.SentBytes(Broadcast), loop.Sent(Broadcast), loop.SentBytes(Broadcast))
		}
	}
}

func TestCountersDiff(t *testing.T) {
	var c Counters
	c.RecordSend(Uplink, protocol.KindProbeReply, 10)
	snap := c.Snapshot()
	c.RecordSend(Uplink, protocol.KindProbeReply, 10)
	c.RecordSend(Downlink, protocol.KindAnswerUpdate, 20)
	c.RecordDeliver(Downlink)
	d := c.Diff(snap)
	if d.Sent(Uplink) != 1 || d.Sent(Downlink) != 1 {
		t.Errorf("diff sent: up=%d down=%d", d.Sent(Uplink), d.Sent(Downlink))
	}
	if d.SentBytes(Uplink) != 10 {
		t.Errorf("diff bytes = %d", d.SentBytes(Uplink))
	}
	if d.Delivered(Downlink) != 1 {
		t.Errorf("diff delivered = %d", d.Delivered(Downlink))
	}
	// Snapshot itself is unchanged by later records.
	if snap.Sent(Downlink) != 0 {
		t.Error("snapshot aliasing")
	}
}

func TestBreakdownTable(t *testing.T) {
	var c Counters
	c.RecordSend(Uplink, protocol.KindEnterReport, 37)
	c.RecordSend(Broadcast, protocol.KindMonitorInstall, 61)
	tbl := c.BreakdownTable()
	if !strings.Contains(tbl, "enter-report") || !strings.Contains(tbl, "monitor-install") {
		t.Errorf("table missing rows:\n%s", tbl)
	}
	if strings.Contains(tbl, "probe-reply") {
		t.Errorf("table contains all-zero row:\n%s", tbl)
	}
	if !strings.Contains(tbl, "TOTAL") {
		t.Errorf("table missing total:\n%s", tbl)
	}
}

func TestDirectionString(t *testing.T) {
	for _, d := range Directions() {
		if strings.HasPrefix(d.String(), "direction(") {
			t.Errorf("unnamed direction %d", d)
		}
	}
	if Direction(9).String() != "direction(9)" {
		t.Error("fallback name wrong")
	}
}

func ans(ids ...model.ObjectID) model.Answer {
	ns := make([]model.Neighbor, len(ids))
	for i, id := range ids {
		ns[i] = model.Neighbor{ID: id, Dist: float64(i + 1)}
	}
	return model.Answer{Neighbors: ns}
}

func TestAuditExactMatch(t *testing.T) {
	var a Audit
	a.Observe(ans(1, 2, 3), ans(1, 2, 3))
	a.Observe(ans(3, 2, 1), ans(1, 2, 3)) // order-insensitive
	if a.Exactness() != 1 || a.MeanRecall() != 1 {
		t.Errorf("exact answers scored: exact=%v r=%v", a.Exactness(), a.MeanRecall())
	}
	if a.Evaluations() != 2 {
		t.Errorf("Evaluations = %d", a.Evaluations())
	}
	if a.WorstRecall() != 1 {
		t.Errorf("WorstRecall = %v", a.WorstRecall())
	}
}

func TestAuditPartialMatch(t *testing.T) {
	var a Audit
	a.Observe(ans(1, 2, 4), ans(1, 2, 3))
	if a.Exactness() != 0 {
		t.Error("partial answer counted as exact")
	}
	want := 2.0 / 3.0
	if r := a.MeanRecall(); r < want-1e-9 || r > want+1e-9 {
		t.Errorf("recall = %v, want %v", r, want)
	}
	if a.WorstRecall() > want+1e-9 {
		t.Errorf("worst recall = %v", a.WorstRecall())
	}
}

func TestAuditEmptyAnswers(t *testing.T) {
	var a Audit
	// Got nothing, truth nothing: vacuous success.
	a.Observe(model.Answer{}, model.Answer{})
	if a.Exactness() != 1 {
		t.Error("empty==empty should be exact")
	}
	// Got nothing, truth has members: recall 0.
	var b Audit
	b.Observe(model.Answer{}, ans(1))
	if b.MeanRecall() != 0 || b.Exactness() != 0 {
		t.Errorf("missing answer: recall=%v exact=%v", b.MeanRecall(), b.Exactness())
	}
}

func TestAuditRadiusError(t *testing.T) {
	var a Audit
	got := model.Answer{Neighbors: []model.Neighbor{{ID: 1, Dist: 110}}}
	truth := model.Answer{Neighbors: []model.Neighbor{{ID: 1, Dist: 100}}}
	a.Observe(got, truth)
	if e := a.MeanRadiusError(); e < 0.0999 || e > 0.1001 {
		t.Errorf("radius error = %v, want 0.1", e)
	}
}

func TestAuditEmptyDefaults(t *testing.T) {
	var a Audit
	if a.Exactness() != 1 || a.MeanRecall() != 1 ||
		a.WorstRecall() != 1 || a.MeanRadiusError() != 0 {
		t.Error("empty audit defaults wrong")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Len() != 0 {
		t.Error("empty series defaults")
	}
	for _, v := range []float64{2, 4, 9} {
		s.Add(v)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

// Merging chunked audits must equal observing the same answers into one
// accumulator: counts and sums add, worst recall takes the minimum over
// initialized chunks.
func TestAuditMerge(t *testing.T) {
	var whole Audit
	whole.Observe(ans(1, 2, 3), ans(1, 2, 3))
	whole.Observe(ans(1, 2, 4), ans(1, 2, 3))
	whole.Observe(model.Answer{}, ans(1))

	var c1, c2 Audit
	c1.Observe(ans(1, 2, 3), ans(1, 2, 3))
	c1.Observe(ans(1, 2, 4), ans(1, 2, 3))
	c2.Observe(model.Answer{}, ans(1))
	var merged Audit
	merged.Merge(&c1)
	merged.Merge(&c2)

	if merged != whole {
		t.Errorf("merged audit %+v != direct %+v", merged, whole)
	}
	if merged.WorstRecall() != 0 {
		t.Errorf("merged worst recall = %v, want 0 (from chunk 2)", merged.WorstRecall())
	}
}

// Merging an empty audit is a no-op and must not clobber worst recall.
func TestAuditMergeEmpty(t *testing.T) {
	var a, empty Audit
	a.Observe(ans(1, 2), ans(1, 3)) // recall 1/2
	before := a
	a.Merge(&empty)
	if a != before {
		t.Errorf("merging empty changed audit: %+v -> %+v", before, a)
	}
	// And empty.Merge(populated) adopts the populated stats.
	empty.Merge(&a)
	if empty != a {
		t.Errorf("empty.Merge: %+v != %+v", empty, a)
	}
}

func TestAuditReset(t *testing.T) {
	var a Audit
	a.Observe(ans(1), ans(2))
	a.Reset()
	if a != (Audit{}) {
		t.Errorf("Reset left state: %+v", a)
	}
}

func TestEvictionCounter(t *testing.T) {
	var c Counters
	if c.Evictions() != 0 {
		t.Fatal("fresh counters report evictions")
	}
	c.RecordEviction()
	c.RecordEviction()
	if c.Evictions() != 2 {
		t.Fatalf("evictions = %d, want 2", c.Evictions())
	}
	snap := c.Snapshot()
	c.RecordEviction()
	if d := c.Diff(snap); d.Evictions() != 1 {
		t.Fatalf("diff evictions = %d, want 1", d.Evictions())
	}
	if snap.Evictions() != 2 {
		t.Fatal("snapshot not isolated from later evictions")
	}
}
