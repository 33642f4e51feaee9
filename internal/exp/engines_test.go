package exp

import (
	"fmt"
	"testing"

	"dmknn/internal/cluster"
	"dmknn/internal/core"
	"dmknn/internal/knn"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/shard"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// engineProto scales the protocol to the Quick world (see the core
// package's quickProto).
func engineProto() core.Config {
	cfg := core.DefaultConfig()
	cfg.HorizonTicks = 8
	cfg.MinProbeRadius = 100
	return cfg
}

// Every server shape is wired into the simulation by the one core.Method,
// so whatever the engine offers a core.New run it offers all of them.
// These tests live here because this is the first package that can import
// all three engine packages.
type engineCase struct {
	name  string
	build func(core.Config) (sim.Method, error)
}

func singleEngines() []engineCase {
	return []engineCase{
		{"core", func(c core.Config) (sim.Method, error) { return core.New(c) }},
		// Three shards drained by one worker: the pipeline's sequential
		// schedule, beside batched3's parallel one.
		{"sharded3", func(c core.Config) (sim.Method, error) {
			return core.NewMethod("dknn-sharded", c, 0, func(c core.Config, deps core.ServerDeps, _ *sim.Env) (core.Engine, error) {
				return shard.NewWithOptions(3, c, deps, shard.Options{Workers: 1})
			})
		}},
		{"batched3", func(c core.Config) (sim.Method, error) { return shard.NewBatchedMethod(3, c) }},
	}
}

// A trace sink and the observability histograms must see the protocol on
// every engine: the object agents' reports and the server's events, not
// only the medium's. Shards and federation nodes emit from parallel
// goroutines, so this runs under the race detector in CI.
func TestEveryEngineIsObservable(t *testing.T) {
	engines := append(singleEngines(), engineCase{"cluster2", func(c core.Config) (sim.Method, error) {
		return cluster.NewMethod(2, c, cluster.LinkConfig{})
	}})
	for _, ec := range engines {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Ticks = 30
			cfg.Observe = true
			rec := obs.NewRecorder(0)
			cfg.Trace = rec
			m, err := ec.build(engineProto())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d events of %d types, %d report-gap samples", rec.Total(), len(rec.Counts()), res.ReportGaps.Count())
			if n := rec.Count(obs.EvReportSent); n == 0 {
				t.Errorf("recorder saw no %v among %d events %v", obs.EvReportSent, rec.Total(), rec.Counts())
			}
			if n := rec.Count(obs.EvInstalled); n == 0 {
				t.Errorf("recorder saw no server-side %v", obs.EvInstalled)
			}
			if n := res.ReportGaps.Count(); n == 0 {
				t.Error("ReportGaps holds no sample")
			}
		})
	}
}

// requireExactAnswers checks every query's client-visible answer against
// brute force over the live environment, honoring ties at the k-th
// distance.
func requireExactAnswers(t *testing.T, env *sim.Env, m sim.Method, tag string) {
	t.Helper()
	for _, q := range env.Queries {
		got := m.Answer(q.Spec.ID).Neighbors
		truth := knn.BruteForce(env.Objects, q.State.Pos, q.Spec.K, nil)
		if len(got) != len(truth) {
			t.Fatalf("%s: query %d has %d members, want %d", tag, q.Spec.ID, len(got), len(truth))
		}
		dk := truth[len(truth)-1].Dist
		seen := make(map[model.ObjectID]bool, len(got))
		for _, nb := range got {
			if seen[nb.ID] || int(nb.ID) < 1 || int(nb.ID) > len(env.Objects) {
				t.Fatalf("%s: query %d reports object %d twice or from nowhere", tag, q.Spec.ID, nb.ID)
			}
			seen[nb.ID] = true
			if d := env.ObjectByID(nb.ID).Pos.Dist(q.State.Pos); d > dk+1e-6+dk*1e-9 {
				t.Fatalf("%s: query %d reports object %d at %.3f > k-th distance %.3f", tag, q.Spec.ID, nb.ID, d, dk)
			}
		}
	}
}

// Cold-restart churn — a data object and a focal client each coming back
// with no state, on the schedule of the core chaos suite — must heal to
// exact client-visible answers on every single-process engine. (The
// federation's cell is TestFocalRestartAtStripBoundary in
// internal/cluster.)
func TestRestartChurnHealsOnEveryEngine(t *testing.T) {
	pc := engineProto()
	pc.DeltaAnswers = true
	pc.ResyncTicks = 12
	for _, ec := range singleEngines() {
		for seed := int64(1); seed <= 5; seed++ {
			ec, seed := ec, seed
			t.Run(fmt.Sprintf("%s/seed%d", ec.name, seed), func(t *testing.T) {
				cfg := workload.Quick()
				cfg.Seed = seed
				cfg.DisableAudit = true
				rec := obs.NewRecorder(0)
				cfg.Trace = rec
				obs.DumpOnFailure(t, rec)

				m, err := ec.build(pc)
				if err != nil {
					t.Fatal(err)
				}
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
				requireExactAnswers(t, eng.Env(), m, "pre-churn")
				churn := m.(*core.Method)
				for i := 0; i < 40; i++ {
					if i%10 == 8 {
						if err := churn.RestartObject(model.ObjectID(1 + (i*13)%cfg.NumObjects)); err != nil {
							t.Fatal(err)
						}
						if err := churn.RestartQuery(model.QueryID(1 + (i/10)%cfg.NumQueries)); err != nil {
							t.Fatal(err)
						}
					}
					step(1)
				}
				step(2*pc.ResyncTicks + 3)
				for i := 0; i < 5; i++ {
					step(1)
					requireExactAnswers(t, eng.Env(), m, fmt.Sprintf("post-heal+%d", i))
				}
			})
		}
	}
}
