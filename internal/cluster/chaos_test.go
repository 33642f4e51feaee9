package cluster

import (
	"fmt"
	"sort"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
	"dmknn/internal/workload"
)

// chaosProto enables the machinery a lossy federation needs to heal:
// delta answers (so desync is possible at all) and a resync period that
// bounds how long any divergence survives.
func chaosProto() core.Config {
	c := proto()
	c.DeltaAnswers = true
	c.ResyncTicks = 12
	return c
}

// assertClientAnswersExact checks every query's client-visible answer
// against brute-force ground truth, honoring ties at the k-th distance
// (same check as the core package's chaos suite).
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
			if d := env.ObjectByID(nb.ID).Pos.Dist(q.State.Pos); d > dk+tol {
				t.Fatalf("%s: query %d reports object %d at %.3f > k-th distance %.3f",
					tag, q.Spec.ID, nb.ID, d, dk)
			}
		}
	}
}

// The federation chaos soak: inter-node link loss combined with radio
// burst loss while objects and queries keep crossing node boundaries.
// Once every fault clears, the answers must re-converge to exact — the
// retried handoffs and periodic resyncs must heal whatever the loss
// destroyed — and the link metering must conserve messages throughout.
func TestClusterChaosReconvergence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Seed = seed
			cfg.NumObjects = 300
			cfg.NumQueries = 4
			cfg.LatencyTicks = 0 // exactness is only defined under same-tick delivery
			cfg.DisableAudit = true

			// Flight recorder: a failed reconvergence dumps the handoff
			// and answer history instead of a bare assertion.
			rec := obs.NewRecorder(0)
			cfg.Trace = rec
			obs.DumpOnFailure(t, rec)

			pc := chaosProto()
			m := mustMethod(t, 2, pc, LinkConfig{Loss: 0.35, Seed: seed})
			eng, err := sim.NewEngine(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			env := eng.Env()
			step := func(n int) {
				for i := 0; i < n; i++ {
					if err := eng.Step(); err != nil {
						t.Fatalf("seed%d: %v", seed, err)
					}
				}
			}

			// The loss starts at tick 0, so establishment already fights
			// it; soak long enough for boundary churn under faults.
			burst := simnet.BurstLoss(0.30, 4)
			env.Net.SetFaults(simnet.FaultConfig{
				UplinkGE: burst, DownlinkGE: burst, BroadcastGE: burst,
			})
			step(50)

			// Heal everything.
			env.Net.SetFaults(simnet.FaultConfig{})
			m.Link().SetLoss(0)
			heal := 2*pc.ResyncTicks + 3
			step(heal)

			for i := 0; i < 5; i++ {
				step(1)
				assertClientAnswersExact(t, env, m, fmt.Sprintf("post-heal+%d", i))
			}

			// Conservation held across the whole lossy run.
			s := m.Link().Stats()
			if s.Sent != s.Delivered+s.Dropped+uint64(m.Link().PendingCount()) {
				t.Fatalf("link conservation violated: %+v, pending %d",
					s, m.Link().PendingCount())
			}
			if s.Dropped == 0 {
				t.Fatal("link never dropped; chaos phase exercised nothing")
			}
			// The churn must have actually crossed boundaries for this
			// soak to mean anything.
			if st := m.Cluster().Stats(); st.ObjectHandoffs == 0 {
				t.Fatal("no object handoffs during the chaos soak")
			}
		})
	}
}

// The smallest reproduction of the re-registration-at-a-strip-boundary
// defect (ROADMAP: "one rule for a query changing owner"). A focal client
// that cold-restarts within a metre of a strip boundary re-registers
// while its track crosses it: seed 2's query 4 restarts after tick 48 at
// (500.60, 598.47), the boundary at x = 500, and tick 49 moves its home
// from node 1 to node 0. Node 0's own Answer(4) is then wrong on 40 of
// the ticks 50–96 — well past the heal window of the restart-churn
// schedule every single-process engine passes
// (TestRestartChurnHealsOnEveryEngine in internal/exp), of which this is
// the federation cell. Seeds 1, 3, 4 and 5 pass, and so does seed 2
// without the query restarts.
func TestFocalRestartAtStripBoundary(t *testing.T) {
	t.Skip("known defect (re-registration at a strip boundary): a query that migrates in the tick it re-registers leaves its new home inexact")
	cfg := workload.Quick()
	cfg.Seed = 2
	cfg.DisableAudit = true
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	obs.DumpOnFailure(t, rec)

	pc := chaosProto()
	m := mustMethod(t, 2, pc, LinkConfig{})
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(10)
	assertClientAnswersExact(t, eng.Env(), m, "pre-churn")
	for i := 0; i < 40; i++ {
		if i%10 == 8 {
			if err := m.RestartObject(model.ObjectID(1 + (i*13)%cfg.NumObjects)); err != nil {
				t.Fatal(err)
			}
			if err := m.RestartQuery(model.QueryID(1 + (i/10)%cfg.NumQueries)); err != nil {
				t.Fatal(err)
			}
		}
		step(1)
	}
	step(2*pc.ResyncTicks + 3)
	for i := 0; i < 5; i++ {
		step(1)
		assertClientAnswersExact(t, eng.Env(), m, fmt.Sprintf("post-heal+%d", i))
	}
}
