package core

import (
	"testing"

	"dmknn/internal/baseline"
	"dmknn/internal/metrics"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{HorizonTicks: 0, MinProbeRadius: 100},
		{HorizonTicks: 10, ThetaInside: -1, MinProbeRadius: 100},
		{HorizonTicks: 10, QueryDeviation: -1, MinProbeRadius: 100},
		{HorizonTicks: 10, MinProbeRadius: 0},
		{HorizonTicks: 10, MinProbeRadius: 100, AnswerSlack: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted bad config", i)
		}
	}
}

func mustDKNN(t *testing.T, cfg Config) *Method {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// quickProto scales the protocol parameters to the Quick world: the
// safety slack (Vobj+Vqry)·H must stay a small fraction of the 1 km
// world for the monitoring regions to be local.
func quickProto() Config {
	cfg := DefaultConfig()
	cfg.HorizonTicks = 8
	cfg.MinProbeRadius = 100
	return cfg
}

// The exactness invariant: with zero latency, no loss, θ = 0 and query
// deviation 0, the client-visible answers match brute-force ground truth
// at every tick for every query.
func TestExactnessInvariant(t *testing.T) {
	cfg := workload.Quick()
	res, err := sim.Run(cfg, mustDKNN(t, quickProto()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Evaluations() == 0 {
		t.Fatal("no audited answers")
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("exactness = %v (recall mean %v, worst %v) — protocol not exact under ideal network",
			ex, res.Audit.MeanRecall(), res.Audit.WorstRecall())
	}
}

// Same invariant under every mobility model.
func TestExactnessAcrossMobilityModels(t *testing.T) {
	for _, kind := range []string{workload.ModelDirection, workload.ModelManhattan} {
		cfg, err := workload.WithMobility(workload.Quick(), kind)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Ticks = 60
		res, err := sim.Run(cfg, mustDKNN(t, quickProto()))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ex := res.Audit.Exactness(); ex != 1.0 {
			t.Errorf("%s: exactness = %v", kind, ex)
		}
	}
}

// DKNN uplink traffic must not scale with the object population, while CP
// scales linearly. This is the headline claim of the paper.
func TestUplinkScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling comparison is slow")
	}
	base := workload.Quick()
	base.Ticks = 60

	run := func(n int, m sim.Method) float64 {
		res, err := sim.Run(workload.WithObjects(base, n), m)
		if err != nil {
			t.Fatal(err)
		}
		return res.UplinkPerTick()
	}

	dknnSmall := run(600, mustDKNN(t, quickProto()))
	dknnBig := run(2400, mustDKNN(t, quickProto()))
	cpSmall := run(600, baseline.NewCP())
	cpBig := run(2400, baseline.NewCP())

	if cpSmall < 590 || cpBig < 2390 {
		t.Fatalf("CP should uplink ~N per tick: got %.1f @600, %.1f @2400", cpSmall, cpBig)
	}
	// DKNN grows sublinearly: 4x objects must cost < 2x messages. (Denser
	// population means smaller kNN circles, so cost often *drops*.)
	if dknnBig > 2*dknnSmall {
		t.Errorf("DKNN uplink not population-independent: %.1f @600, %.1f @2400",
			dknnSmall, dknnBig)
	}
	if dknnSmall > cpSmall/4 {
		t.Errorf("DKNN (%.1f) should be far below CP (%.1f) at N=600", dknnSmall, cpSmall)
	}
}

// Determinism: identical seeds produce identical traffic and accuracy.
func TestDeterminism(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 40
	r1, err := sim.Run(cfg, mustDKNN(t, quickProto()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(cfg, mustDKNN(t, quickProto()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Traffic != r2.Traffic {
		t.Error("traffic differs across identical runs")
	}
	if r1.Audit.Exactness() != r2.Audit.Exactness() {
		t.Error("accuracy differs across identical runs")
	}
}

// Under message loss the protocol must survive (no livelock, no panic)
// and degrade gracefully, healing at reinstalls.
func TestLossResilience(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 80
	cfg.UplinkLoss = 0.05
	cfg.DownlinkLoss = 0.05
	cfg.BroadcastLoss = 0.05
	pc := quickProto()
	pc.ResyncTicks = 24 // bound desync lifetime under loss
	res, err := sim.Run(cfg, mustDKNN(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Audit.MeanRecall(); rec < 0.85 {
		t.Errorf("mean recall %v under 5%% loss — degradation not graceful", rec)
	}
	if res.Traffic.Dropped(0)+res.Traffic.Dropped(1)+res.Traffic.Dropped(2) == 0 {
		t.Error("loss configured but nothing dropped")
	}
}

// Under delivery latency the protocol still quiesces and produces mostly
// correct answers (staleness bounded by the latency).
func TestLatencyDegradesGracefully(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60
	cfg.LatencyTicks = 1
	res, err := sim.Run(cfg, mustDKNN(t, quickProto()))
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Audit.MeanRecall(); rec < 0.7 {
		t.Errorf("mean recall %v with 1-tick latency", rec)
	}
}

// Nonzero θ trades accuracy for fewer messages, monotonically.
func TestThetaTradeoff(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	run := func(theta float64) (float64, float64) {
		pc := quickProto()
		pc.ThetaInside = theta
		res, err := sim.Run(cfg, mustDKNN(t, pc))
		if err != nil {
			t.Fatal(err)
		}
		return res.UplinkPerTick(), res.Audit.MeanRecall()
	}

	upExact, recExact := run(0)
	upMid, recMid := run(10)
	upLoose, recLoose := run(50)
	if !(upLoose < upMid && upMid < upExact) {
		t.Errorf("uplink should fall with θ: %.1f (θ=0) %.1f (θ=10) %.1f (θ=50)",
			upExact, upMid, upLoose)
	}
	if recExact != 1.0 {
		t.Errorf("θ=0 recall = %v", recExact)
	}
	if !(recLoose <= recMid && recMid <= recExact) {
		t.Errorf("recall should fall with θ: %v %v %v", recExact, recMid, recLoose)
	}
	if recMid < 0.75 {
		t.Errorf("θ=10 recall collapsed to %v", recMid)
	}
}

// A deregistered query stops consuming object traffic: the cancel
// broadcast removes the monitors from the objects, so no event reports
// flow afterwards.
func TestDeregisterStopsTraffic(t *testing.T) {
	cfg := workload.Quick()
	cfg.NumQueries = 1
	method := mustDKNN(t, quickProto())
	eng, err := sim.NewEngine(cfg, method)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	for i := 0; i < 10; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	server := method.Engine().(*Server)
	if a := server.Answer(1); len(a.Neighbors) != cfg.K {
		t.Fatalf("query not established after 10 ticks: %v", a)
	}
	// Deregister via the query client's own transport and deliver.
	addr := env.Queries[0].State.ID
	env.Net.ClientSide(addr).Uplink(protocol.QueryDeregister{Query: 1})
	env.Net.Flush()
	if a := server.Answer(1); len(a.Neighbors) != 0 {
		t.Fatalf("server retains answer after deregister: %v", a)
	}
	// After the cancel propagates, object agents must hold no monitors
	// and send no event reports.
	before := env.Net.Counters().Snapshot()
	for i := 0; i < 10; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	d := env.Net.Counters().Diff(before)
	for _, k := range []protocol.Kind{
		protocol.KindEnterReport, protocol.KindExitReport,
		protocol.KindLeaveReport, protocol.KindMoveReport,
		protocol.KindProbeReply,
	} {
		if n := d.SentKind(metrics.Uplink, k); n != 0 {
			t.Errorf("%v still flowing after deregister: %d", k, n)
		}
	}
	for i := range env.Objects {
		if n := method.Agents()[i].MonitorCount(); n != 0 {
			t.Fatalf("object %d still holds %d monitors", i+1, n)
		}
	}
}

// Monitors on objects are dropped once the object leaves the region and
// reports; the server must not keep dead candidates forever.
func TestServerAnswerForUnknownQuery(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 5
	cfg.Warmup = 0
	m := mustDKNN(t, quickProto())
	if _, err := sim.Run(cfg, m); err != nil {
		t.Fatal(err)
	}
	if a := m.Answer(999); len(a.Neighbors) != 0 {
		t.Errorf("unknown query answer = %v", a)
	}
	if a := m.Engine().(*Server).Answer(999); len(a.Neighbors) != 0 {
		t.Errorf("unknown query server answer = %v", a)
	}
}

// Range-monitoring mode: with a fixed radius, membership is the answer;
// under the ideal network it is exact at every tick, and in-boundary
// objects send no MoveReports at all.
func TestRangeMonitoringExactAndMoveFree(t *testing.T) {
	cfg := workload.Quick()
	cfg.QueryRange = 120
	cfg.K = 0
	cfg.Ticks = 60
	method := mustDKNN(t, quickProto())
	eng, err := sim.NewEngine(cfg, method)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("range monitoring exactness = %v (recall %v)", ex, res.Audit.MeanRecall())
	}
	if n := env.Net.Counters().SentKind(metrics.Uplink, protocol.KindMoveReport); n != 0 {
		t.Errorf("range monitors sent %d MoveReports; membership needs none", n)
	}
	// Uplink stays event-driven: far below CP's N+Q.
	if up := res.UplinkPerTick(); up > float64(cfg.NumObjects)/3 {
		t.Errorf("range monitoring uplink %v too high", up)
	}
}

// The centralized baseline answers range queries too, exactly.
func TestRangeMonitoringCPBaseline(t *testing.T) {
	cfg := workload.Quick()
	cfg.QueryRange = 120
	cfg.K = 0
	cfg.Ticks = 30
	res, err := sim.Run(cfg, baseline.NewCP())
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("CP range exactness = %v", ex)
	}
}

// Delta answer delivery: same exact client-visible membership, fewer
// downlink bytes.
func TestDeltaAnswersExactAndSmaller(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	full, err := sim.Run(cfg, mustDKNN(t, quickProto()))
	if err != nil {
		t.Fatal(err)
	}
	pc := quickProto()
	pc.DeltaAnswers = true
	delta, err := sim.Run(cfg, mustDKNN(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	if ex := delta.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("delta-mode exactness = %v", ex)
	}
	fullBytes := full.Traffic.SentBytes(metrics.Downlink)
	deltaBytes := delta.Traffic.SentBytes(metrics.Downlink)
	if deltaBytes >= fullBytes {
		t.Errorf("delta mode should cut downlink bytes: %d vs %d", deltaBytes, fullBytes)
	}
	if delta.Traffic.SentKind(metrics.Downlink, protocol.KindAnswerDelta) == 0 {
		t.Error("no deltas sent")
	}
}

// The bootstrap install in delta mode sends a full AnswerUpdate (the
// client baseline), and subsequent changes flow as deltas.
func TestDeltaModeBaselinesWithFullUpdate(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 30
	cfg.Warmup = 0 // keep bootstrap traffic in the measured window
	pc := quickProto()
	pc.DeltaAnswers = true
	res, err := sim.Run(cfg, mustDKNN(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	fulls := res.Traffic.SentKind(metrics.Downlink, protocol.KindAnswerUpdate)
	deltas := res.Traffic.SentKind(metrics.Downlink, protocol.KindAnswerDelta)
	if fulls < uint64(cfg.NumQueries) {
		t.Errorf("expected >= %d full baselines, got %d", cfg.NumQueries, fulls)
	}
	if deltas == 0 {
		t.Error("no deltas flowed after baselining")
	}
}
