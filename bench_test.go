// Benchmarks that regenerate every figure and table of the reconstructed
// evaluation (DESIGN.md §5) at smoke scale, one benchmark per experiment.
// Each benchmark iteration runs the full (methods × sweep) grid of its
// experiment and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// exercises the entire evaluation pipeline. The paper-scale numbers come
// from `go run ./cmd/dknn-bench -profile full` and are recorded in
// EXPERIMENTS.md.
package dmknn

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"dmknn/internal/exp"
)

// benchProfile is the smoke-scale evaluation grid.
func benchProfile() exp.Profile {
	p := exp.SmokeProfile()
	// Keep each experiment under a few hundred milliseconds per
	// iteration; b.N will still multiply it.
	p.Base.Ticks = 30
	p.Base.Warmup = 10
	return p
}

// runExperiment benchmarks one experiment of the suite and reports the
// last sweep point's per-method values as custom metrics.
func runExperiment(b *testing.B, build func(exp.Profile) *exp.Experiment) {
	b.Helper()
	p := benchProfile()
	e := build(p)
	var tbl *exp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if tbl == nil || len(tbl.Rows) == 0 {
		b.Fatal("no results")
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	for i, col := range tbl.Columns {
		b.ReportMetric(last.Values[i], sanitizeMetric(col))
	}
}

// sanitizeMetric converts a column header into a benchstat-safe unit.
func sanitizeMetric(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == '=', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Every experiment has one benchmark in this file and one section in
// EXPERIMENTS.md, and neither names an experiment the suite no longer
// has: removing (or adding) an experiment in one place fails here until
// the other two follow. table2 is the one id outside exp.Suite.
func TestExperimentsBenchmarksAndDocsAgree(t *testing.T) {
	suite := map[string]bool{"table2": true}
	for _, e := range exp.Suite(exp.SmokeProfile()) {
		suite[e.ID] = true
	}
	for _, src := range []struct{ file, pattern, what string }{
		{"bench_test.go", `(?m)^func Benchmark(Fig|Table)(\d+)`, "benchmark"},
		{"EXPERIMENTS.md", `(?m)^## (Fig|Table) (\d+)\b`, "section"},
	} {
		text, err := os.ReadFile(src.file)
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, m := range regexp.MustCompile(src.pattern).FindAllStringSubmatch(string(text), -1) {
			id := strings.ToLower(m[1]) + m[2]
			found[id] = true
			if !suite[id] {
				t.Errorf("%s has a %s for %s, which is not an experiment", src.file, src.what, id)
			}
		}
		for id := range suite {
			if !found[id] {
				t.Errorf("experiment %s has no %s in %s", id, src.what, src.file)
			}
		}
	}
}

// BenchmarkFig5ObjectScaling regenerates Fig 5: uplink/tick vs N.
func BenchmarkFig5ObjectScaling(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig5ObjectScaling() })
}

// BenchmarkFig6VaryK regenerates Fig 6: uplink/tick vs k.
func BenchmarkFig6VaryK(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig6VaryK() })
}

// BenchmarkFig7ObjectSpeed regenerates Fig 7: uplink/tick vs object speed.
func BenchmarkFig7ObjectSpeed(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig7ObjectSpeed() })
}

// BenchmarkFig8QuerySpeed regenerates Fig 8: uplink/tick vs query speed.
func BenchmarkFig8QuerySpeed(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig8QuerySpeed() })
}

// BenchmarkFig9Downlink regenerates Fig 9: downlink+broadcast vs N.
func BenchmarkFig9Downlink(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig9Downlink() })
}

// BenchmarkFig10ServerCPU regenerates Fig 10: server µs/tick vs N.
func BenchmarkFig10ServerCPU(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig10ServerCPU() })
}

// BenchmarkFig11QueryScaling regenerates Fig 11: uplink/tick vs Q.
func BenchmarkFig11QueryScaling(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig11QueryScaling() })
}

// BenchmarkFig12SlackAblation regenerates Fig 12: DKNN cost vs horizon H.
func BenchmarkFig12SlackAblation(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig12SlackAblation() })
}

// BenchmarkFig13GridResolution regenerates Fig 13: cost vs grid cell
// size.
func BenchmarkFig13GridResolution(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig13GridResolution() })
}

// BenchmarkFig15Skew regenerates Fig 15: uniform vs hotspot populations.
func BenchmarkFig15Skew(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig15Skew() })
}

// BenchmarkFig16ShardScaling regenerates Fig 16: server wall time vs
// shard count.
func BenchmarkFig16ShardScaling(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig16ShardScaling() })
}

// BenchmarkFig17LossRobustness regenerates Fig 17: quality vs loss.
func BenchmarkFig17LossRobustness(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig17LossRobustness() })
}

// BenchmarkFig18BurstLoss regenerates Fig 18: quality vs bursty
// (Gilbert–Elliott) loss.
func BenchmarkFig18BurstLoss(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig18BurstLoss() })
}

// BenchmarkFig19LargeScale regenerates Fig 19: audit-free traffic and
// server time up to N = 100 000 — the guard that the simulated medium's
// cell-indexed fan-out keeps large populations affordable.
func BenchmarkFig19LargeScale(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig19LargeScale() })
}

// BenchmarkFig20ClusterScaling regenerates Fig 20: the spatially
// partitioned federation — per-node server time, inter-node link
// traffic, and handoff counts as the node count grows.
func BenchmarkFig20ClusterScaling(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig20ClusterScaling() })
}

// BenchmarkFig21Staleness regenerates Fig 21: answer staleness and
// report-gap quantiles vs radio loss, collected by the engine's Observe
// mode from the per-query lifecycle trace.
func BenchmarkFig21Staleness(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig21Staleness() })
}

// BenchmarkFig22AdaptiveBalance regenerates Fig 22: adaptive
// partitioning vs the static even split under hotspot skew — load CV,
// server latency tail, applied column moves, and the exactness
// invariant across the migrating ticks.
func BenchmarkFig22AdaptiveBalance(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Fig22AdaptiveBalance() })
}

// BenchmarkTable2Breakdown regenerates Table 2: message breakdown by kind
// and direction.
func BenchmarkTable2Breakdown(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunTable2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Accuracy regenerates Table 3: accuracy/cost tradeoff.
func BenchmarkTable3Accuracy(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Table3Accuracy() })
}

// BenchmarkTable4Mobility regenerates Table 4: traffic per mobility model.
func BenchmarkTable4Mobility(b *testing.B) {
	runExperiment(b, func(p exp.Profile) *exp.Experiment { return p.Table4Mobility() })
}
