package simnet

import (
	"sort"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The Gilbert–Elliott channel's long-run loss fraction must match the
// rate BurstLoss was solved for, losses must actually cluster into
// bursts, and the process must be deterministic under a fixed seed.
func TestBurstLossRateBurstinessAndDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		cfg := testConfig()
		cfg.Seed = seed
		cfg.Faults = FaultConfig{UplinkGE: BurstLoss(0.3, 8)}
		n := New(cfg)
		n.AttachServer(&recorder{})
		const total = 20000
		outcomes := make([]bool, total) // true = dropped
		for i := 0; i < total; i++ {
			n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
			outcomes[i] = n.Flush() == 0
		}
		c := n.Counters()
		if c.Sent(metrics.Uplink) != c.Delivered(metrics.Uplink)+c.Dropped(metrics.Uplink) {
			t.Fatal("conservation violated under burst loss")
		}
		return outcomes
	}

	out := run(7)
	dropped := 0
	for _, d := range out {
		if d {
			dropped++
		}
	}
	rate := float64(dropped) / float64(len(out))
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("stationary loss rate %.3f, want ≈0.30", rate)
	}

	// Burstiness: mean run length of consecutive drops should be near the
	// configured mean burst length (8), far above the ≈1.43 an independent
	// 30% loss would produce.
	runs, runLen := 0, 0
	var total int
	for _, d := range out {
		if d {
			runLen++
		} else if runLen > 0 {
			runs++
			total += runLen
			runLen = 0
		}
	}
	if runLen > 0 {
		runs++
		total += runLen
	}
	mean := float64(total) / float64(runs)
	if mean < 4 {
		t.Errorf("mean drop-burst length %.2f; losses are not bursty", mean)
	}

	// Determinism: identical seed, identical loss pattern.
	out2 := run(7)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("burst loss not deterministic at message %d", i)
		}
	}
}

// Per-message jitter must reorder messages across ticks (breaking FIFO)
// while keeping every delivery within [latency, latency+jitter] and
// losing nothing.
func TestJitterReordersWithoutLoss(t *testing.T) {
	cfg := testConfig()
	cfg.LatencyTicks = 1
	cfg.Seed = 3
	cfg.Faults = FaultConfig{JitterTicks: 3}
	n := New(cfg)
	rec := &recorder{}
	n.AttachClient(9, rec)

	const total = 50
	n.SetNow(1)
	for i := 0; i < total; i++ {
		n.ServerSide().Downlink(9, protocol.AnswerUpdate{Query: 1, Seq: uint32(i), At: 1})
	}
	if n.Flush() != 0 {
		t.Fatal("delivered before the base latency elapsed")
	}
	for tick := model.Tick(2); tick <= 5; tick++ {
		n.SetNow(tick)
		n.Flush()
	}
	if len(rec.msgs) != total {
		t.Fatalf("jitter lost messages: %d/%d delivered", len(rec.msgs), total)
	}
	order := make([]int, total)
	for i, m := range rec.msgs {
		order[i] = int(m.(protocol.AnswerUpdate).Seq)
	}
	if sort.IntsAreSorted(order) {
		t.Fatal("jitter preserved FIFO order over 50 messages")
	}
	seen := make(map[int]bool, total)
	for _, s := range order {
		if seen[s] {
			t.Fatalf("message %d delivered twice without a duplication fault", s)
		}
		seen[s] = true
	}
}

// Duplication enqueues uncounted extra copies; conservation becomes
// sent + duplicated == delivered + dropped.
func TestDuplicationConservation(t *testing.T) {
	cfg := testConfig()
	cfg.UplinkLoss = 0.2
	cfg.Seed = 11
	cfg.Faults = FaultConfig{DuplicateProb: 0.3, UplinkGE: BurstLoss(0.1, 4)}
	n := New(cfg)
	n.AttachServer(&recorder{})
	const total = 5000
	for i := 0; i < total; i++ {
		n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
	}
	n.Flush()
	c := n.Counters()
	if c.Sent(metrics.Uplink) != total {
		t.Fatalf("duplicated copies were counted as sends: %d", c.Sent(metrics.Uplink))
	}
	dups := n.Duplicated(metrics.Uplink)
	if dups == 0 {
		t.Fatal("duplication fault enabled but nothing duplicated")
	}
	if float64(dups) < 0.2*total || float64(dups) > 0.4*total {
		t.Errorf("duplicated %d of %d, want ≈30%%", dups, total)
	}
	if c.Sent(metrics.Uplink)+dups != c.Delivered(metrics.Uplink)+c.Dropped(metrics.Uplink) {
		t.Fatalf("sent %d + duplicated %d != delivered %d + dropped %d",
			c.Sent(metrics.Uplink), dups, c.Delivered(metrics.Uplink), c.Dropped(metrics.Uplink))
	}
}

// A down client neither sends nor receives: its traffic is dropped and
// counted, and bringing it back up restores delivery with no re-attach.
func TestClientDownChurn(t *testing.T) {
	n := New(testConfig())
	srv := &recorder{}
	rec := &recorder{}
	n.AttachServer(srv)
	n.AttachClient(4, rec)
	n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return geo.Pt(50, 50), true })

	n.SetClientDown(4, true)
	n.ClientSide(4).Uplink(protocol.QueryDeregister{Query: 1})
	n.ServerSide().Downlink(4, protocol.AnswerUpdate{Query: 1})
	n.ServerSide().Broadcast(geo.Circle{Center: geo.Pt(50, 50), R: 10}, protocol.MonitorCancel{Query: 1})
	if n.Flush() != 0 {
		t.Fatal("down client exchanged traffic")
	}
	c := n.Counters()
	if c.Dropped(metrics.Uplink) != 1 || c.Dropped(metrics.Downlink) != 1 || c.Dropped(metrics.Broadcast) != 1 {
		t.Fatalf("down-client drops not counted: up=%d down=%d bc=%d",
			c.Dropped(metrics.Uplink), c.Dropped(metrics.Downlink), c.Dropped(metrics.Broadcast))
	}

	n.SetClientDown(4, false)
	n.ClientSide(4).Uplink(protocol.QueryDeregister{Query: 1})
	n.ServerSide().Downlink(4, protocol.AnswerUpdate{Query: 1})
	if n.Flush() != 2 {
		t.Fatal("revived client still cut off")
	}
	if len(srv.uplinks) != 1 || len(rec.msgs) != 1 {
		t.Fatal("revived client's traffic not delivered")
	}
}

// SetFaults mid-run: faults can be switched on and cleared between
// flushes, modeling a chaos phase inside one deterministic run.
func TestSetFaultsMidRun(t *testing.T) {
	n := New(testConfig())
	n.AttachServer(&recorder{})
	send := func() bool {
		n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
		return n.Flush() == 1
	}
	if !send() {
		t.Fatal("clean network dropped a message")
	}
	// good state never loses and always transitions to bad, which always
	// loses and (almost) never recovers: deterministic after one attempt.
	n.SetFaults(FaultConfig{UplinkGE: GEChannel{PGoodBad: 1, PBadGood: 1e-12, LossBad: 1}})
	if !send() {
		t.Fatal("first attempt starts in the good state and must deliver")
	}
	for i := 0; i < 5; i++ {
		if send() {
			t.Fatal("bad state delivered")
		}
	}
	n.SetFaults(FaultConfig{})
	if !send() {
		t.Fatal("clearing faults did not restore delivery")
	}
}

// Invalid fault matrices are refused loudly at construction (and via
// SetFaults), and the BurstLoss constructor rejects unusable parameters.
func TestFaultConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	geom := testConfig().Geometry
	mustPanic("probability > 1", func() {
		New(Config{Geometry: geom, Faults: FaultConfig{UplinkGE: GEChannel{PGoodBad: 1.5, PBadGood: 1}}})
	})
	mustPanic("absorbing bad state", func() {
		New(Config{Geometry: geom, Faults: FaultConfig{DownlinkGE: GEChannel{PGoodBad: 0.1, LossBad: 1}}})
	})
	mustPanic("negative jitter", func() {
		New(Config{Geometry: geom, Faults: FaultConfig{JitterTicks: -1}})
	})
	mustPanic("duplicate prob 1", func() {
		New(Config{Geometry: geom, Faults: FaultConfig{DuplicateProb: 1}})
	})
	mustPanic("SetFaults validates too", func() {
		New(Config{Geometry: geom}).SetFaults(FaultConfig{DuplicateProb: -0.1})
	})
	mustPanic("burst rate 1", func() { BurstLoss(1, 4) })
	mustPanic("burst length < 1", func() { BurstLoss(0.3, 0.5) })
	if BurstLoss(0, 4).enabled() {
		t.Error("zero-rate burst channel should be disabled")
	}
	if !BurstLoss(0.3, 4).enabled() {
		t.Error("nonzero-rate burst channel should be enabled")
	}
}

// The fault generator is separate from the base loss generator: enabling
// a fault on one direction must not perturb the seeded loss pattern on
// another.
func TestFaultsDoNotPerturbBaseLossStream(t *testing.T) {
	outcomes := func(faults FaultConfig) []bool {
		cfg := testConfig()
		cfg.UplinkLoss = 0.3
		cfg.Seed = 5
		cfg.Faults = faults
		n := New(cfg)
		n.AttachServer(&recorder{})
		out := make([]bool, 2000)
		for i := range out {
			n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: 1})
			out[i] = n.Flush() == 1
		}
		return out
	}
	clean := outcomes(FaultConfig{})
	// Downlink-only faults draw from the fault generator; the uplink loss
	// pattern must be bit-identical.
	faulted := outcomes(FaultConfig{DownlinkGE: BurstLoss(0.5, 4), JitterTicks: 0})
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("base loss stream perturbed at message %d", i)
		}
	}
}
