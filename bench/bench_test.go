package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"dmknn/internal/cluster"
	"dmknn/internal/core"
	imetrics "dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/shard"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// tinyEpisode runs the workload's ticks at test scale.
func tinyEpisode(t *testing.T, name string, seed int64, rec *recorder) *episode {
	t.Helper()
	sp, err := findSpec(name, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := runEpisode(sp, seed, sp.ticks, rec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return e
}

// wire is the per-direction traffic of an episode, the part that must
// repeat exactly.
func wire(c *imetrics.Counters) [9]uint64 {
	var w [9]uint64
	for i, d := range imetrics.Directions() {
		w[3*i], w[3*i+1], w[3*i+2] = c.Sent(d), c.SentBytes(d), c.Delivered(d)
	}
	return w
}

func loadContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every workload at tiny scale answers exactly, fails nothing, and emits
// exactly the metric names BENCHMARK.json lists, in both passes.
func TestTinyWorkloadsExactAndNamed(t *testing.T) {
	c := loadContract(t)
	var wantE2E, wantLayer, wantWorkloads []string
	for _, m := range c.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range c.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	for _, w := range c.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	var gotWorkloads []string
	for i, sp := range specs() {
		gotWorkloads = append(gotWorkloads, sp.name)
		if i < len(c.Workloads) && c.Workloads[i].Why != sp.why {
			t.Errorf("%s: why differs from BENCHMARK.json", sp.name)
		}
	}
	if !slices.Equal(gotWorkloads, wantWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", gotWorkloads, wantWorkloads)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(defs []metricDef, m map[string]float64) []string {
		if len(m) != len(defs) {
			t.Errorf("%d values for %d metric definitions", len(m), len(defs))
		}
		var out []string
		for _, d := range defs {
			if _, ok := m[d.name]; !ok {
				t.Errorf("metric %s not reported", d.name)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q outside the allowed character set", d.name)
			}
			out = append(out, d.name)
		}
		return out
	}
	for _, name := range wantWorkloads {
		e := tinyEpisode(t, name, 1, nil)
		if e.failed() != 0 || e.inexact != 0 || e.audited != e.ticks*e.sp.queries {
			t.Errorf("%s: %d audited, %d inexact, %d failed (%v %v)", name, e.audited, e.inexact, e.failed(), e.first, e.errs)
		}
		m := endToEndMetrics(e, []float64{e.setupS})
		if got := names(endToEnd, m); !slices.Equal(got, wantE2E) {
			t.Errorf("%s: end-to-end names %v, BENCHMARK.json lists %v", name, got, wantE2E)
		}
		if m["exact_share"] != 1 {
			t.Errorf("%s: exact_share %v", name, m["exact_share"])
		}
		for _, d := range endToEnd {
			if m[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, d.name, m[d.name])
			}
		}

		tr := tinyEpisode(t, name, 1, newRecorder())
		if tr.failed() != 0 {
			t.Errorf("%s traced: %d failed (%v %v)", name, tr.failed(), tr.first, tr.errs)
		}
		if got := names(perLayer, tr.layers); !slices.Equal(got, wantLayer) {
			t.Errorf("%s: per-layer names differ from BENCHMARK.json", name)
		}
		// Tracing observes; it must not change what goes over the wire
		// (on sockets arrival order, and with it the counts, may vary).
		if e.sp.engine != engineTCP && wire(&tr.wire) != wire(&e.wire) {
			t.Errorf("%s: traced pass changed the wire counts", name)
		}
	}
	for _, m := range c.EndToEnd {
		if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.name == m.Name }); i < 0 || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end metric %s: unit differs from BENCHMARK.json", m.Name)
		}
	}
	for _, m := range c.PerLayer {
		if i := slices.IndexFunc(perLayer, func(d metricDef) bool { return d.name == m.Name }); i < 0 || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer metric %s: unit differs from BENCHMARK.json", m.Name)
		}
	}
}

// On the simulated medium a seed fixes the wire counts, another seed
// changes them, and the two many-query engines are wire-identical.
func TestWireCountsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{"steady-100k", "manyq-sync", "manyq-batched", "fed4-hotspot"} {
		a, b, other := tinyEpisode(t, name, 3, nil), tinyEpisode(t, name, 3, nil), tinyEpisode(t, name, 4, nil)
		if wire(&a.wire) != wire(&b.wire) {
			t.Errorf("%s: same seed, different wire counts", name)
		}
		if wire(&a.wire) == wire(&other.wire) {
			t.Errorf("%s: another seed, same wire counts", name)
		}
	}
	s, b := tinyEpisode(t, "manyq-sync", 5, nil), tinyEpisode(t, "manyq-batched", 5, nil)
	if wire(&s.wire) != wire(&b.wire) {
		t.Errorf("manyq-sync and manyq-batched differ on the wire: %v vs %v", wire(&s.wire), wire(&b.wire))
	}
}

// The socket barrier reaches quiescence with a single scheduler thread.
func TestTCPBarrierSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := tinyEpisode(t, "tcp-300", 2, nil)
	if e.failed() != 0 || e.timeouts != 0 {
		t.Fatalf("tcp at GOMAXPROCS=1: %d failed, %d time-outs (%v)", e.failed(), e.timeouts, e.errs)
	}
}

// The harness's own loop over simnet produces per-direction message and
// byte counters identical to sim.Run with each package's sim.Method, for
// the same seed: the benchmark measures the protocol EXPERIMENTS.md
// reports, not a variant of it.
func TestHarnessMatchesSimRun(t *testing.T) {
	methods := map[engineKind]func(sp spec) (sim.Method, error){
		engineSync:    func(sp spec) (sim.Method, error) { return core.New(sp.proto) },
		engineBatched: func(sp spec) (sim.Method, error) { return shard.NewBatchedMethod(sp.shards, sp.proto) },
		engineFed: func(sp spec) (sim.Method, error) {
			return cluster.NewMethod(sp.nodes, sp.proto, cluster.LinkConfig{})
		},
	}
	for _, name := range []string{"manyq-sync", "manyq-batched", "fed4-hotspot"} {
		sp, err := findSpec(name, true)
		if err != nil {
			t.Fatal(err)
		}
		sp.queryStrips, sp.hotspots = 0, 0 // sim.Run moves all focal points with one factory model
		const seed = 7
		e, err := runEpisode(sp, seed, sp.ticks, nil)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := workload.ModelFactory(sp.mobility, sp.world, sp.maxSpeed/4, sp.maxSpeed)
		if err != nil {
			t.Fatal(err)
		}
		method, err := methods[sp.engine](sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			World: sp.world, Cols: sp.cols, Rows: sp.rows,
			NumObjects: sp.objects, NumQueries: sp.queries, K: sp.k, DT: 1,
			MaxObjectSpeed: sp.maxSpeed, MaxQuerySpeed: sp.maxSpeed,
			Ticks: sp.ticks, Warmup: sp.warmup, Seed: seed,
			ObjectModel: factory, QueryModel: factory, DisableAudit: true,
		}, method)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wire(&e.wire), wire(&res.Traffic); got != want {
			t.Errorf("%s: harness wire %v, sim.Run %v", name, got, want)
		}
		if wire(&e.wire)[0] == 0 {
			t.Errorf("%s: no uplink traffic measured", name)
		}
	}
}

// The auditor is the benchmark's correctness check, so it must be able
// to fail: a wrong member, a short answer and a duplicate are inexact,
// and any choice among objects tied at the k-th distance is exact.
func TestAuditorRejectsWrongAnswers(t *testing.T) {
	sp, err := findSpec("manyq-sync", true)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := newAuditor(w)
	a.grid.rebuild(w.objects)
	answer := func(ids []model.ObjectID) model.Answer {
		ans := model.Answer{Query: 1}
		for _, id := range ids {
			ans.Neighbors = append(ans.Neighbors, model.Neighbor{ID: id})
		}
		return ans
	}
	truth := a.scanKNN(0)
	if !a.exact(0, answer(truth)) {
		t.Fatal("the plain-scan kNN is audited as inexact")
	}
	inTruth := func(id model.ObjectID) bool { return slices.Contains(truth, id) }
	far := model.ObjectID(1)
	for inTruth(far) {
		far++
	}
	wrong := slices.Clone(truth)
	wrong[0] = far
	dup := slices.Clone(truth)
	dup[0] = dup[1]
	for name, ids := range map[string][]model.ObjectID{"wrong member": wrong, "short": truth[1:], "duplicate": dup, "unknown id": append(slices.Clone(truth[1:]), 1<<30)} {
		if a.exact(0, answer(ids)) {
			t.Errorf("%s answer audited as exact", name)
		}
	}
	// Put an outsider exactly at the k-th member's position: either is a
	// correct k-th neighbour.
	kth := truth[0]
	q := w.queries[0].Pos
	for _, id := range truth {
		if w.objects[id-1].Pos.Dist(q) > w.objects[kth-1].Pos.Dist(q) {
			kth = id
		}
	}
	w.objects[far-1].Pos = w.objects[kth-1].Pos
	a.grid.rebuild(w.objects)
	tied := slices.Clone(truth)
	tied[slices.Index(tied, kth)] = far
	if !a.exact(0, answer(tied)) || !a.exact(0, answer(truth)) {
		t.Error("a tie at the k-th distance is audited as inexact")
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		bound  float64
		want   string
	}{
		{100, 104, "lower", 0.05, "within"},
		{100, 106, "lower", 0.05, "worse"},
		{100, 94, "lower", 0.05, "better"},
		{100, 94, "higher", 0.05, "worse"},
		{100, 106, "higher", 0.05, "better"},
		{0, 1, "lower", 0.05, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", c.a, c.b, c.better, c.bound, got, c.want)
		}
	}
	spec := loadContract(t)
	mk := func(p50, exact float64, failed int) *runResult {
		r := &runResult{Schema: resultSchema}
		for _, w := range spec.Workloads {
			e2e := map[string]value{}
			for _, m := range spec.EndToEnd {
				e2e[m.Name] = value{100, m.Unit}
			}
			e2e["tick_ms_p50"] = value{p50, "ms"}
			e2e["exact_share"] = value{exact, "ratio"}
			r.Workloads = append(r.Workloads, workloadResult{Name: w.Name, EndToEnd: e2e, Failed: failed})
		}
		return r
	}
	if got := compareResults(io.Discard, spec, mk(100, 1, 0), mk(100, 1, 0)); got != 0 {
		t.Errorf("identical results compare as %d", got)
	}
	if got := compareResults(io.Discard, spec, mk(100, 1, 0), mk(200, 1, 0)); got != 1 {
		t.Errorf("a doubled tick time compares as %d", got)
	}
	if got := compareResults(io.Discard, spec, mk(100, 1, 0), mk(100, 0.999, 1)); got != 1 {
		t.Errorf("an inexact run compares as %d", got)
	}
}

// The checked-in baseline is a full result in the current schema.
func TestBaselineMatchesContract(t *testing.T) {
	data, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	c := loadContract(t)
	if r.Schema != resultSchema || len(r.Workloads) != len(c.Workloads) {
		t.Fatalf("baseline schema %q with %d workloads", r.Schema, len(r.Workloads))
	}
	for i, w := range r.Workloads {
		if w.Name != c.Workloads[i].Name || len(w.EndToEnd) != len(c.EndToEnd) || len(w.PerLayer) != len(c.PerLayer) || w.Failed != 0 {
			t.Errorf("baseline workload %s: %d end-to-end, %d per-layer metrics, %d failed", w.Name, len(w.EndToEnd), len(w.PerLayer), w.Failed)
		}
		if w.EndToEnd["exact_share"].Value != 1 {
			t.Errorf("baseline workload %s: exact_share %v", w.Name, w.EndToEnd["exact_share"].Value)
		}
	}
}
