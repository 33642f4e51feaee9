package exp

import (
	"runtime"
	"strings"
	"testing"

	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// tiny returns a profile small enough for unit tests: two points per
// sweep, a handful of ticks.
func tiny() Profile {
	p := SmokeProfile()
	p.Base.Ticks = 15
	p.Base.Warmup = 5
	p.Base.NumObjects = 200
	p.Base.NumQueries = 2
	p.Ns = []int{150, 300}
	p.Ks = []int{1, 5}
	p.ObjSpeeds = []float64{5, 10}
	p.QrySpeeds = []float64{0, 10}
	p.Qs = []int{1, 4}
	p.Horizons = []int{4, 8}
	p.Taus = []float64{20}
	p.Thetas = []float64{0, 20}
	p.Mobilities = []string{workload.ModelWaypoint}
	p.Grids = []int{8, 16}
	p.Shards = []int{1, 2}
	p.Nodes = []int{1, 2}
	p.Losses = []float64{0, 0.05}
	return p
}

func TestSuiteStructure(t *testing.T) {
	suite := Suite(tiny())
	if len(suite) != 19 {
		t.Fatalf("suite has %d experiments, want 19", len(suite))
	}
	seen := map[string]bool{}
	for _, e := range suite {
		if e.ID == "" || e.Title == "" || e.XLabel == "" {
			t.Errorf("experiment %q lacks metadata", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if len(e.Points) == 0 || len(e.Methods) == 0 || len(e.Metrics) == 0 {
			t.Errorf("experiment %q is empty", e.ID)
		}
		for _, pt := range e.Points {
			if err := pt.Config.Validate(); err != nil {
				t.Errorf("experiment %q point %q: %v", e.ID, pt.Label, err)
			}
		}
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "table3", "table4"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

// The shape is asserted on the golden profile's fig 5 table (4 queries ×
// 20 ticks), not tiny()'s 2 × 10: members on their reported tracks are
// silent, and tiny()'s DKNN sample, some 50 to 130 uplinks, is then too
// small to carry a growth ratio — enter/exit counts alone swing it from
// 0.78× to 2.38× across seeds 1–5, where the golden table gives 0.88× to
// 1.44×.
func TestFig5RunAndShape(t *testing.T) {
	p := goldenProfile()
	tbl, err := p.Fig5ObjectScaling().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(p.Ns) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	cp, ok := tbl.Column("CP")
	if !ok {
		t.Fatalf("no CP column in %v", tbl.Columns)
	}
	dknn, ok := tbl.Column("DKNN")
	if !ok {
		t.Fatalf("no DKNN column in %v", tbl.Columns)
	}
	// Shape assertions from the paper: CP grows ~linearly with N, DKNN
	// stays below it and grows sublinearly.
	if cp[1] < cp[0]*1.8 {
		t.Errorf("CP not linear in N: %v", cp)
	}
	if dknn[1] >= cp[1] {
		t.Errorf("DKNN (%v) should be below CP (%v)", dknn, cp)
	}
	ratio := dknn[1] / dknn[0]
	if ratio > 1.8 {
		t.Errorf("DKNN grew %vx for 2x objects", ratio)
	}
}

// Fig19 runs audit-free with a short horizon; at test scale it must
// produce one row per LargeNs point with sane (positive-traffic) cells.
func TestFig19RunAndShape(t *testing.T) {
	p := tiny()
	p.LargeNs = []int{400, 800}
	tbl, err := p.Fig19LargeScale().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(p.LargeNs) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(p.LargeNs))
	}
	up, ok := tbl.Column("DKNN uplink/tick")
	if !ok {
		t.Fatalf("no DKNN uplink column in %v", tbl.Columns)
	}
	for i, v := range up {
		if v <= 0 {
			t.Errorf("row %d: DKNN uplink/tick = %v, want > 0", i, v)
		}
	}
}

// Fig21 turns the observability histograms into a sweep: every point
// runs with Observe set, so the staleness columns must be populated
// (zero-loss staleness is bounded by the protocol, not absent) and the
// rendered table must be deterministic across repeat runs.
func TestFig21RunShapeAndDeterminism(t *testing.T) {
	p := tiny()
	e := p.Fig21Staleness()
	tbl, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(p.Losses) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(p.Losses))
	}
	for _, pt := range e.Points {
		if !pt.Config.Observe {
			t.Fatalf("point %q does not observe", pt.Label)
		}
	}
	gap, ok := tbl.Column("DKNN report gap p90")
	if !ok {
		t.Fatalf("no report-gap column in %v", tbl.Columns)
	}
	for i, v := range gap {
		if v <= 0 {
			t.Errorf("row %d: report gap p90 = %v, want > 0", i, v)
		}
	}
	if _, ok := tbl.Column("DKNN stale p99"); !ok {
		t.Fatalf("no staleness column in %v", tbl.Columns)
	}
	again, err := p.Fig21Staleness().Run()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CSV() != again.CSV() {
		t.Errorf("fig21 not deterministic:\n%s\n---\n%s", tbl.CSV(), again.CSV())
	}
}

// Fig22 compares static and adaptive partitioning under hotspot skew:
// at test scale the adaptive federation must actually move columns, both
// variants must stay exact (the migration-safety invariant rendered as a
// table column), and the static one must never move anything.
func TestFig22RunAndShape(t *testing.T) {
	p := tiny()
	p.Nodes = []int{1, 4} // 1 is skipped: a single node cannot rebalance
	p.Base.Ticks = 60
	tbl, err := p.Fig22AdaptiveBalance().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tbl.Rows))
	}
	for _, name := range []string{"static[4 nodes] exactness", "adaptive[4 nodes] exactness"} {
		vals, ok := tbl.Column(name)
		if !ok {
			t.Fatalf("no %q column in %v", name, tbl.Columns)
		}
		if vals[0] != 1.0 {
			t.Errorf("%s = %v, want 1.00", name, vals[0])
		}
	}
	staticMoves, ok := tbl.Column("static[4 nodes] col moves")
	if !ok {
		t.Fatalf("no static col-moves column in %v", tbl.Columns)
	}
	if staticMoves[0] != 0 {
		t.Errorf("static federation moved %v columns", staticMoves[0])
	}
	adaptiveMoves, ok := tbl.Column("adaptive[4 nodes] col moves")
	if !ok {
		t.Fatalf("no adaptive col-moves column in %v", tbl.Columns)
	}
	if adaptiveMoves[0] <= 0 {
		t.Errorf("adaptive federation moved %v columns, want > 0", adaptiveMoves[0])
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "figX", Title: "demo", XLabel: "N",
		Columns: []string{"CP", "DKNN"},
		Rows: []Row{
			{Label: "100", Values: []float64{100.5, 10.25}},
			{Label: "200", Values: []float64{200, 11}},
		},
	}
	text := tbl.Render()
	for _, want := range []string{"figX", "demo", "CP", "DKNN", "100.50", "11.00"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### figX", "| N |", "| 100 |", "|---|---|---|"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	if _, ok := tbl.Column("nope"); ok {
		t.Error("Column found a nonexistent column")
	}
}

func TestRunTable2(t *testing.T) {
	p := tiny()
	out, err := p.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CP", "DKNN", "location-report", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestTable3HasAccuracyColumns(t *testing.T) {
	p := tiny()
	tbl, err := p.Table3Accuracy().Run()
	if err != nil {
		t.Fatal(err)
	}
	// θ=0 DKNN must be exact.
	vals, ok := tbl.Column("DKNN(θ=0) exactness")
	if !ok {
		t.Fatalf("no exactness column: %v", tbl.Columns)
	}
	if vals[0] != 1.0 {
		t.Errorf("DKNN θ=0 exactness = %v", vals[0])
	}
}

func TestBuildErrorsPropagate(t *testing.T) {
	e := &Experiment{
		ID: "bad", Title: "bad", XLabel: "x",
		Points:  []Point{{"p", tiny().Base}},
		Methods: []MethodSpec{{Name: "broken", Build: func() (sim.Method, error) { return nil, errBoom }}},
		Metrics: []Metric{MetricUplink},
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("build error swallowed")
	}
}

var errBoom = &boomErr{}

type boomErr struct{}

func (*boomErr) Error() string { return "boom" }

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		ID: "figX", Title: "demo", XLabel: "N,comma",
		Columns: []string{"CP", `DK"NN`},
		Rows: []Row{
			{Label: "100", Values: []float64{100.5, 10.25}},
		},
	}
	csv := tbl.CSV()
	want := "\"N,comma\",CP,\"DK\"\"NN\"\n100,100.5,10.25\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

// CSV escaping: commas and quotes in method names and row labels must be
// quoted per RFC 4180, and embedded newlines kept inside quotes.
func TestTableCSVEscaping(t *testing.T) {
	tbl := &Table{
		ID: "figY", Title: "escape", XLabel: "x",
		Columns: []string{`CI(τ=50), strict`, "plain", "multi\nline"},
		Rows: []Row{
			{Label: `say "hi"`, Values: []float64{1, 2, 3}},
			{Label: "a,b", Values: []float64{4, 5, 6}},
		},
	}
	csv := tbl.CSV()
	want := "x,\"CI(τ=50), strict\",plain,\"multi\nline\"\n" +
		"\"say \"\"hi\"\"\",1,2,3\n" +
		"\"a,b\",4,5,6\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

// Markdown escaping: a pipe in a method name or label must not open a
// spurious cell; newlines must not break the row.
func TestTableMarkdownEscaping(t *testing.T) {
	tbl := &Table{
		ID: "figZ", Title: "escape", XLabel: "a|b",
		Columns: []string{"CP|strict", "DKNN"},
		Rows: []Row{
			{Label: "x|y", Values: []float64{1, 2}},
			{Label: "two\nlines", Values: []float64{3, 4}},
		},
	}
	md := tbl.Markdown()
	for _, want := range []string{`| a\|b |`, `| CP\|strict |`, `| x\|y |`, "| two lines |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	// Every row must have exactly columns+1 pipes... i.e. the unescaped
	// pipe count per line is fixed.
	for _, line := range strings.Split(strings.TrimSpace(md), "\n")[2:] {
		bare := strings.Count(strings.ReplaceAll(line, `\|`, ""), "|")
		if bare != len(tbl.Columns)+2 {
			t.Errorf("row %q has %d cell separators, want %d", line, bare, len(tbl.Columns)+2)
		}
	}
}

// Build and run errors must surface from the parallel pool too.
func TestBuildErrorsPropagateParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := &Experiment{
		ID: "bad", Title: "bad", XLabel: "x",
		Points:  []Point{{"p", tiny().Base}, {"q", tiny().Base}},
		Methods: []MethodSpec{{Name: "broken", Build: func() (sim.Method, error) { return nil, errBoom }}},
		Metrics: []Metric{MetricUplink},
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("build error swallowed by parallel runner")
	}
}

// The parallel runner must be invisible in the output: for every
// experiment in the suite, the rendered tables at GOMAXPROCS 1 and
// GOMAXPROCS 8 are byte-identical (each cell is an independent seeded
// run, and aggregation happens in enumeration order).
func TestParallelRunDeterministic(t *testing.T) {
	p := tiny()
	runAt := func(e *Experiment, procs int) *Table {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS=%d: %v", e.ID, procs, err)
		}
		return tbl
	}
	for i, build := range []func() *Experiment{
		p.Fig5ObjectScaling,  // single metric, multi-method
		p.Fig12SlackAblation, // methods encode the sweep
		p.Table3Accuracy,     // multi-metric columns
		p.Fig17LossRobustness,
	} {
		e := build()
		e.Seeds = 2
		seq, parallel := runAt(e, 1), runAt(e, 8)
		if seq.Render() != parallel.Render() {
			t.Errorf("case %d (%s): parallel Render differs\n--- GOMAXPROCS=1\n%s--- GOMAXPROCS=8\n%s",
				i, e.ID, seq.Render(), parallel.Render())
		}
		if seq.CSV() != parallel.CSV() {
			t.Errorf("case %d (%s): parallel CSV differs", i, e.ID)
		}
	}
}

// An experiment runs its cells one at a time exactly when one of its
// metrics reads the clock (server time, its p99, the nodes' busy time),
// so the pool cannot perturb a wall-clock metric.
func TestSerialExperiments(t *testing.T) {
	for _, m := range []Metric{MetricServer, MetricServLatP99, MetricLoadCV} {
		if !m.clock {
			t.Errorf("%s reads the clock but is not marked", m.Name)
		}
	}
	serialIDs := map[string]bool{
		"fig10": true, "fig13": true, "fig15": true, "fig16": true,
		"fig19": true, "fig20": true, "fig22": true,
	}
	for _, e := range Suite(tiny()) {
		if e.serial() != serialIDs[e.ID] {
			t.Errorf("%s: serial = %v, want %v", e.ID, e.serial(), serialIDs[e.ID])
		}
	}
}

// Seeds > 1 averages over distinct workloads: the averaged value lies
// within the range of the individual runs, and single-seed equals the
// plain run.
func TestSeedsAveraging(t *testing.T) {
	p := tiny()
	e := p.Fig6VaryK()
	e.Points = e.Points[:1]
	e.Methods = e.Methods[:1] // CP only: exact N+Q regardless of seed
	one, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.Seeds = 3
	avg, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// CP's uplink is N+Q for every seed, so the mean equals the single run.
	if one.Rows[0].Values[0] != avg.Rows[0].Values[0] {
		t.Errorf("CP mean %v != single %v", avg.Rows[0].Values[0], one.Rows[0].Values[0])
	}
}
