package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
	"dmknn/internal/workload"
)

// chaosCase is one cell of the fault matrix the soak test sweeps.
type chaosCase struct {
	name   string
	faults simnet.FaultConfig
	churn  bool // client crash/restart churn during the fault phase
}

func chaosMatrix() []chaosCase {
	burst := simnet.BurstLoss(0.30, 4)
	return []chaosCase{
		{name: "burst-loss", faults: simnet.FaultConfig{
			UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst}},
		{name: "jitter", faults: simnet.FaultConfig{JitterTicks: 3}},
		{name: "duplication", faults: simnet.FaultConfig{DuplicateProb: 0.25}},
		{name: "churn", churn: true},
		{name: "everything", faults: simnet.FaultConfig{
			UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst,
			JitterTicks: 3, DuplicateProb: 0.25}, churn: true},
	}
}

// chaosProto is the protocol configuration under chaos: delta answers (so
// answer-stream desync is actually possible) and a resync period that
// bounds how long any divergence can survive.
func chaosProto() Config {
	cfg := quickProto()
	cfg.DeltaAnswers = true
	cfg.ResyncTicks = 12
	return cfg
}

// assertClientAnswersExact checks every query's client-visible answer
// against brute-force ground truth from the live environment, honoring
// ties at the k-th distance.
func assertClientAnswersExact(t *testing.T, env *sim.Env, m *Method, tag string) {
	t.Helper()
	ds := make([]float64, len(env.Objects))
	for _, q := range env.Queries {
		got := m.Answer(q.Spec.ID)
		k := q.Spec.K
		if len(got.Neighbors) != k {
			t.Fatalf("%s: query %d has %d members, want %d",
				tag, q.Spec.ID, len(got.Neighbors), k)
		}
		for i := range env.Objects {
			ds[i] = env.Objects[i].Pos.Dist(q.State.Pos)
		}
		sort.Float64s(ds)
		dk := ds[k-1]
		tol := 1e-6 + dk*1e-9
		seen := make(map[model.ObjectID]bool, k)
		for _, nb := range got.Neighbors {
			if seen[nb.ID] {
				t.Fatalf("%s: query %d reports object %d twice", tag, q.Spec.ID, nb.ID)
			}
			seen[nb.ID] = true
			if int(nb.ID) < 1 || int(nb.ID) > len(env.Objects) {
				t.Fatalf("%s: query %d reports nonexistent object %d", tag, q.Spec.ID, nb.ID)
			}
			if d := env.ObjectByID(nb.ID).Pos.Dist(q.State.Pos); d > dk+tol {
				t.Fatalf("%s: query %d reports object %d at %.3f > k-th distance %.3f",
					tag, q.Spec.ID, nb.ID, d, dk)
			}
		}
	}
}

// runChaos drives one (faults, seed) cell under the given protocol
// configuration: establish cleanly, soak under the fault matrix (plus
// churn when enabled), clear the faults, and require exact
// client-visible answers within the heal window — and stably so
// afterwards.
func runChaos(t *testing.T, c chaosCase, seed int64, pc Config) {
	t.Helper()
	cfg := workload.Quick()
	cfg.Seed = seed
	cfg.NumObjects = 300
	cfg.NumQueries = 4
	cfg.LatencyTicks = 0 // exactness is only defined under same-tick delivery
	cfg.DisableAudit = true

	// Flight recorder: a failed soak dumps the protocol event history
	// that led to the divergence instead of a bare assertion message.
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	obs.DumpOnFailure(t, rec)

	m := mustDKNN(t, pc)
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	step := func(n int) {
		for i := 0; i < n; i++ {
			if err := eng.Step(); err != nil {
				t.Fatalf("%s/seed%d: %v", c.name, seed, err)
			}
		}
	}

	// Clean establishment.
	step(10)
	assertClientAnswersExact(t, env, m, "pre-fault")

	// Fault phase.
	env.Net.SetFaults(c.faults)
	var downObj, downQry model.ObjectID
	const faultTicks = 40
	for i := 0; i < faultTicks; i++ {
		if c.churn {
			switch i % 10 {
			case 0: // crash one data object for a few ticks
				downObj = model.ObjectID(1 + (i*7)%cfg.NumObjects)
				env.Net.SetClientDown(downObj, true)
			case 3:
				env.Net.SetClientDown(downObj, false)
				downObj = 0
			case 4: // crash a focal client briefly
				downQry = model.ObjectID(cfg.NumObjects + 1 + (i/10)%cfg.NumQueries)
				env.Net.SetClientDown(downQry, true)
			case 7:
				env.Net.SetClientDown(downQry, false)
				downQry = 0
			case 8: // cold restarts: agents come back with no local state
				if err := m.RestartObject(model.ObjectID(1 + (i*13)%cfg.NumObjects)); err != nil {
					t.Fatal(err)
				}
				if err := m.RestartQuery(model.QueryID(1 + (i/10)%cfg.NumQueries)); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(1)
	}

	// Clear every fault and let the protocol heal: jittered stragglers
	// drain, then a periodic resync probe rebuilds any desynced state.
	env.Net.SetFaults(simnet.FaultConfig{})
	if downObj != 0 {
		env.Net.SetClientDown(downObj, false)
	}
	if downQry != 0 {
		env.Net.SetClientDown(downQry, false)
	}
	// Worst case: the periodic timer fired just before the faults cleared
	// (its rebaseline lost), so the next resync probe starts a full
	// ResyncTicks later and needs a few rounds to expand and conclude.
	heal := 2*pc.ResyncTicks + c.faults.JitterTicks + 2*cfg.LatencyTicks + 3
	step(heal)

	// Exact again — and stably exact, not transiently.
	for i := 0; i < 5; i++ {
		step(1)
		assertClientAnswersExact(t, env, m, fmt.Sprintf("post-heal+%d", i))
	}
}

// The chaos soak: every fault-matrix combination at several seeds. The
// protocol must survive the chaos phase (no panic, no livelock) and
// re-converge to exact kNN answers once the faults clear.
func TestChaosSoakMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, c := range chaosMatrix() {
		for _, seed := range seeds {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				runChaos(t, c, seed, chaosProto())
			})
		}
	}
}

// influenceChaosMatrix is the fault sweep for influence mode: plain
// independent loss, Gilbert–Elliott burst loss, jitter, and duplication
// — the four channels that can tear the frontier advertisements and the
// suppressed reports apart.
func influenceChaosMatrix() []chaosCase {
	burst := simnet.BurstLoss(0.30, 4)
	plain := simnet.BurstLoss(0.15, 1)
	return []chaosCase{
		{name: "plain-loss", faults: simnet.FaultConfig{
			UplinkGE: plain, DownlinkGE: plain, BroadcastGE: plain}},
		{name: "burst-loss", faults: simnet.FaultConfig{
			UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst}},
		{name: "jitter", faults: simnet.FaultConfig{JitterTicks: 3}},
		{name: "duplication", faults: simnet.FaultConfig{DuplicateProb: 0.25}},
		{name: "everything", faults: simnet.FaultConfig{
			UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst,
			JitterTicks: 3, DuplicateProb: 0.25}},
	}
}

// The influence-mode chaos soak: with frontier-threshold suppression
// active, every fault cell at 8 seeds must still re-converge to exact
// client-visible kNN answers once the faults clear. Lost frontier
// advertisements degrade an object to the θ rule (frontier zero until
// the next install it hears), lost suppressed-side reports are healed
// by the resync probes and the horizon re-affirmation — the sweep
// proves neither path strands a stale member in an answer.
func TestInfluenceChaosSoakMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	pc := chaosProto()
	pc.Influence = true
	for _, c := range influenceChaosMatrix() {
		for _, seed := range seeds {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				runChaos(t, c, seed, pc)
			})
		}
	}
}

// The advertised-bound staleness property: on a clean channel in
// influence mode, a suppressed object's true position never drifts from
// the server's stored copy by more than the slack its frontier
// threshold advertises — drift ≤ |d(lastReport, q̂) − F| — and the
// server's stored position for every inside member is exactly the
// agent's last report. Checked white-box against every agent monitor on
// every tick, alongside client-visible exactness, so the suppression
// rule (including the refresh-time correction wave that re-checks the
// bound against a new frontier) can never trade answer correctness for
// saved uplinks without failing here.
func TestInfluenceSuppressionStalenessBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Seed = seed
			cfg.NumObjects = 300
			cfg.NumQueries = 4
			cfg.LatencyTicks = 0
			cfg.DisableAudit = true
			rec := obs.NewRecorder(0)
			cfg.Trace = rec
			obs.DumpOnFailure(t, rec)

			pc := quickProto()
			pc.Influence = true
			m := mustDKNN(t, pc)
			eng, err := sim.NewEngine(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			env := eng.Env()
			for i := 0; i < 10; i++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				if err := eng.Step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				assertClientAnswersExact(t, env, m, fmt.Sprintf("tick+%d", i))
				now := env.Net.Now()
				for _, a := range m.Agents() {
					truePos := env.ObjectByID(a.deps.ID).Pos
					for _, am := range a.held() {
						q := am.query
						if !am.inside || am.rangeMode || am.frontier <= 0 {
							continue
						}
						qhat := geo.DeadReckon(am.qpos, am.qvel, float64(now-am.at)*env.DT)
						lastReport := a.memberOf(q).lastReport
						drift := truePos.Dist(lastReport)
						bound := math.Abs(lastReport.Dist(qhat) - am.frontier)
						if drift > bound+1e-6 {
							t.Fatalf("tick %d: object %d query %d: drift %.6f exceeds advertised bound %.6f (F=%.3f)",
								now, a.deps.ID, q, drift, bound, am.frontier)
						}
						smon := m.Engine().(*Server).monitors[q]
						if smon == nil {
							continue
						}
						stored, ok, inside := smon.stored(a.deps.ID)
						if !inside {
							continue
						}
						if !ok || stored != lastReport {
							t.Fatalf("tick %d: object %d query %d: server stored %v, agent last reported %v",
								now, a.deps.ID, q, stored, lastReport)
						}
					}
				}
			}
			if rec.Count(obs.EvReportSuppressed) == 0 {
				t.Error("no report was ever suppressed — the influence mechanism never engaged")
			}
		})
	}
}

// Influence mode must actually save uplink traffic on a clean channel
// while staying exact: same workload, same seed, strictly fewer uplink
// sends than the fixed-horizon baseline.
func TestInfluenceUplinkReduction(t *testing.T) {
	run := func(pc Config) uint64 {
		cfg := workload.Quick()
		cfg.Seed = 5
		cfg.NumObjects = 300
		cfg.NumQueries = 4
		cfg.LatencyTicks = 0
		cfg.DisableAudit = true
		m := mustDKNN(t, pc)
		eng, err := sim.NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		assertClientAnswersExact(t, eng.Env(), m, "final")
		return eng.Env().Net.Counters().Sent(metrics.Uplink)
	}
	base := run(quickProto())
	inf := quickProto()
	inf.Influence = true
	saved := run(inf)
	if saved >= base {
		t.Fatalf("influence mode sent %d uplinks, baseline %d — no reduction", saved, base)
	}
	t.Logf("uplink sends: baseline %d, influence %d (%.1f%% saved)",
		base, saved, 100*float64(base-saved)/float64(base))
}

// failingTB pretends its test already failed, so DumpOnFailure's cleanup
// path can be driven and its output inspected.
type failingTB struct {
	cleanups []func()
	logs     []string
}

func (f *failingTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *failingTB) Failed() bool      { return true }
func (f *failingTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}
func (f *failingTB) finish() {
	for _, fn := range f.cleanups {
		fn()
	}
}

// The flight recorder must demonstrably produce a useful dump when a
// chaos test fails: this drives a lossy run with the recorder armed
// through DumpOnFailure on a TB that reports failure, then inspects the
// dumped trace for the events a divergence post-mortem needs — the drops
// that caused the desync and the resync machinery reacting to it.
func TestChaosFailureDumpsFlightRecorder(t *testing.T) {
	rec := obs.NewRecorder(0)
	ft := &failingTB{}
	obs.DumpOnFailure(ft, rec)

	cfg := workload.Quick()
	cfg.Seed = 7
	cfg.NumObjects = 300
	cfg.NumQueries = 4
	cfg.LatencyTicks = 0
	cfg.DisableAudit = true
	cfg.Trace = rec
	m := mustDKNN(t, chaosProto())
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	step := func(n int) {
		for i := 0; i < n; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(10) // clean establishment
	burst := simnet.BurstLoss(0.30, 4)
	env.Net.SetFaults(simnet.FaultConfig{UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst})
	step(60) // loss long enough to desync answer streams and trigger resyncs

	ft.finish() // the "test" ends failed: the cleanup must dump the trace
	if len(ft.logs) == 0 {
		t.Fatal("DumpOnFailure logged nothing on a failed test")
	}
	dump := strings.Join(ft.logs, "\n")
	for _, want := range []string{
		"flight recorder:",
		"net-drop",         // the induced fault is visible
		"resync-requested", // the client noticed the desync
		"answer-delta",     // the delta stream the loss tore
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q", want)
		}
	}
	if rec.Count(obs.EvResyncRequested) == 0 {
		t.Error("loss phase triggered no resync — the induced failure path did not run")
	}
}

// The full chaos run is deterministic: identical seeds produce identical
// traffic, drops, and duplication counts.
func TestChaosDeterministic(t *testing.T) {
	run := func() (metrics.Counters, uint64) {
		cfg := workload.Quick()
		cfg.Seed = 9
		cfg.NumObjects = 300
		cfg.NumQueries = 4
		cfg.LatencyTicks = 0
		cfg.DisableAudit = true
		m := mustDKNN(t, chaosProto())
		eng, err := sim.NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		env := eng.Env()
		burst := simnet.BurstLoss(0.2, 4)
		env.Net.SetFaults(simnet.FaultConfig{
			UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst,
			JitterTicks: 2, DuplicateProb: 0.2,
		})
		for i := 0; i < 40; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return env.Net.Counters().Snapshot(), env.Net.Duplicated(metrics.Uplink)
	}
	c1, d1 := run()
	c2, d2 := run()
	if d1 != d2 {
		t.Fatalf("duplication count differs: %d vs %d", d1, d2)
	}
	for _, dir := range []metrics.Direction{metrics.Uplink, metrics.Downlink, metrics.Broadcast} {
		if c1.Sent(dir) != c2.Sent(dir) || c1.Delivered(dir) != c2.Delivered(dir) ||
			c1.Dropped(dir) != c2.Dropped(dir) {
			t.Fatalf("%v traffic differs across identical chaos runs", dir)
		}
	}
}
