package baseline

import (
	"strings"
	"testing"

	"dmknn/internal/metrics"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewCI(0); err == nil {
		t.Error("CI with zero threshold accepted")
	}
	if _, err := NewCI(-5); err == nil {
		t.Error("CI with negative threshold accepted")
	}
	if (Config{Mode: ModePeriodic, Threshold: -1}).Validate() == nil {
		t.Error("negative threshold accepted")
	}
	if (Config{Mode: ModePeriodic, QueryThreshold: -1}).Validate() == nil {
		t.Error("negative query threshold accepted")
	}
	if _, err := NewCB(0); err == nil {
		t.Error("CB with zero threshold accepted")
	}
}

func TestNames(t *testing.T) {
	if NewCP().Name() != "cp" {
		t.Error("CP name")
	}
	ci, err := NewCI(50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ci.Name(), "50") {
		t.Errorf("CI name %q should carry τ", ci.Name())
	}
	cb, err := NewCB(25)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cb.Name(), "25") {
		t.Errorf("CB name %q should carry τ", cb.Name())
	}
}

// CB reports on track deviation and the server extrapolates: for
// waypoint motion (long straight legs) it needs far fewer messages than
// CI at the same τ, with comparable accuracy.
func TestCBBeatsCIOnStraightMotion(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	ci, err := NewCI(20)
	if err != nil {
		t.Fatal(err)
	}
	ciRes, err := sim.Run(cfg, ci)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCB(20)
	if err != nil {
		t.Fatal(err)
	}
	cbRes, err := sim.Run(cfg, cb)
	if err != nil {
		t.Fatal(err)
	}
	if cbRes.UplinkPerTick() >= ciRes.UplinkPerTick()/2 {
		t.Errorf("CB (%.1f) should need far fewer uplinks than CI (%.1f) on straight legs",
			cbRes.UplinkPerTick(), ciRes.UplinkPerTick())
	}
	if rec := cbRes.Audit.MeanRecall(); rec < 0.9 {
		t.Errorf("CB recall = %.3f, want >= 0.9 (τ-bounded prediction error)", rec)
	}
}

// CP is the exact reference method: its client-visible answers must match
// ground truth at every tick, and its uplink volume is N + Q per tick.
func TestCPExactAndCostly(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60
	res, err := sim.Run(cfg, NewCP())
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("CP exactness = %v, want 1.0 (recall %v)", ex, res.Audit.MeanRecall())
	}
	want := float64(cfg.NumObjects + cfg.NumQueries)
	if up := res.UplinkPerTick(); up < want-1 || up > want+1 {
		t.Fatalf("CP uplink/tick = %v, want ~%v", up, want)
	}
	if res.Traffic.SentKind(metrics.Uplink, protocol.KindLocationReport) == 0 {
		t.Fatal("no location reports")
	}
}

// CI trades τ-bounded error for fewer uplinks; larger τ means fewer
// messages and lower accuracy, monotonically.
func TestCITradeoff(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	run := func(tau float64) (up float64, recall float64) {
		ci, err := NewCI(tau)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, ci)
		if err != nil {
			t.Fatal(err)
		}
		return res.UplinkPerTick(), res.Audit.MeanRecall()
	}

	upTight, recTight := run(10)
	upLoose, recLoose := run(100)
	if upLoose >= upTight {
		t.Errorf("τ=100 uplink %.1f should be below τ=10 uplink %.1f", upLoose, upTight)
	}
	if recLoose > recTight {
		t.Errorf("recall should degrade with τ: %.3f (τ=10) vs %.3f (τ=100)", recTight, recLoose)
	}
	if recTight < 0.9 {
		t.Errorf("τ=10 recall %.3f too low", recTight)
	}
	cp, err := sim.Run(cfg, NewCP())
	if err != nil {
		t.Fatal(err)
	}
	if upTight >= cp.UplinkPerTick() {
		t.Errorf("CI (%.1f) should beat CP (%.1f) on uplink", upTight, cp.UplinkPerTick())
	}
}

// The same trajectories drive every method (fixed seed), so answers from
// CP and the ground truth agree even as queries and objects both move —
// a regression guard for the engine's motion/order contract.
func TestCPDeterminism(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 30
	r1, err := sim.Run(cfg, NewCP())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(cfg, NewCP())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Traffic != r2.Traffic {
		t.Error("CP traffic not deterministic")
	}
}

func TestAnswerForUnknownQuery(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 5
	cfg.Warmup = 0
	m := NewCP()
	if _, err := sim.Run(cfg, m); err != nil {
		t.Fatal(err)
	}
	if a := m.Answer(999); len(a.Neighbors) != 0 {
		t.Errorf("unknown query answer = %v", a)
	}
}

// Server-side hygiene paths of the centralized server: deregistration,
// query moves, duplicate registration, and disconnect purging.
func TestCentralServerLifecycle(t *testing.T) {
	cfg := workload.Quick()
	cfg.NumQueries = 2
	cfg.Ticks = 5
	cfg.Warmup = 0
	m := NewCP()
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	for i := 0; i < 5; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Answer(1).Neighbors) != cfg.K {
		t.Fatalf("query 1 not answered: %v", m.Answer(1))
	}
	// Duplicate registration is ignored.
	addr1 := env.Queries[0].State.ID
	env.Net.ClientSide(addr1).Uplink(protocol.QueryRegister{Query: 1, K: 99})
	env.Net.Flush()
	// Deregister query 2 via its own client.
	addr2 := env.Queries[1].State.ID
	env.Net.ClientSide(addr2).Uplink(protocol.QueryDeregister{Query: 2})
	env.Net.Flush()
	// Deregistering an unknown query is a no-op.
	env.Net.ClientSide(addr2).Uplink(protocol.QueryDeregister{Query: 42})
	env.Net.Flush()
	// A vanished object leaves the index; a vanished focal client kills
	// its query.
	m.server.HandleClientGone(1)
	m.server.HandleClientGone(addr1)
	if _, ok := m.server.index.Position(1); ok {
		t.Error("vanished object still indexed")
	}
	if len(m.server.queries) != 0 {
		t.Errorf("%d queries survive after gone/deregister", len(m.server.queries))
	}
	// Reports from the reporter agents keep flowing without the queries.
	for i := 0; i < 3; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
}
