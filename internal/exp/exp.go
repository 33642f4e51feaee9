// Package exp is the experiment harness: it enumerates the reconstructed
// evaluation grid from DESIGN.md (figures 5-12, tables 2-4), runs every
// (method × sweep-point) cell on the simulation engine, and renders the
// result tables that EXPERIMENTS.md records.
//
// Two profiles exist: the paper-scale Full profile (tens of thousands of
// objects, hundreds of ticks — minutes of wall clock) used by
// cmd/dknn-bench, and the Smoke profile used by the repository benchmarks
// so that `go test -bench` exercises every experiment quickly.
package exp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dmknn/internal/balance"
	"dmknn/internal/baseline"
	"dmknn/internal/cluster"
	"dmknn/internal/core"
	"dmknn/internal/metrics"
	"dmknn/internal/par"
	"dmknn/internal/shard"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
	"dmknn/internal/workload"
)

// MethodSpec names a method and knows how to build a fresh instance (a
// sim.Method is single-use: it holds per-run state).
type MethodSpec struct {
	Name  string
	Build func() (sim.Method, error)
}

// DKNN returns the distributed method spec with the given protocol
// configuration.
func DKNN(cfg core.Config) MethodSpec {
	return MethodSpec{Name: "DKNN", Build: func() (sim.Method, error) { return core.New(cfg) }}
}

// CP returns the centralized-periodic baseline spec.
func CP() MethodSpec {
	return MethodSpec{Name: "CP", Build: func() (sim.Method, error) { return baseline.NewCP(), nil }}
}

// CI returns the centralized-incremental baseline spec with threshold tau.
func CI(tau float64) MethodSpec {
	return MethodSpec{
		Name:  fmt.Sprintf("CI(τ=%g)", tau),
		Build: func() (sim.Method, error) { return baseline.NewCI(tau) },
	}
}

// CB returns the centralized predictive dead-reckoning baseline spec with
// threshold tau.
func CB(tau float64) MethodSpec {
	return MethodSpec{
		Name:  fmt.Sprintf("CB(τ=%g)", tau),
		Build: func() (sim.Method, error) { return baseline.NewCB(tau) },
	}
}

// Metric extracts one scalar from a run result.
type Metric struct {
	Name string
	Fn   func(*sim.Result) float64
	// clock marks a metric that reads wall-clock time (server time, its
	// tail, the nodes' busy time): an experiment reporting one runs its
	// cells one at a time, so sibling runs on other cores cannot perturb
	// the timings (Experiment.serial).
	clock bool
}

// The metrics the evaluation reports.
var (
	MetricUplink = Metric{Name: "uplink/tick", Fn: func(r *sim.Result) float64 { return r.UplinkPerTick() }}
	MetricDown   = Metric{Name: "down+bcast/tick", Fn: func(r *sim.Result) float64 { return r.DownlinkPerTick() }}
	MetricServer = Metric{Name: "server µs/tick", Fn: func(r *sim.Result) float64 { return r.ServerUS.Mean() }, clock: true}
	MetricExact  = Metric{Name: "exactness", Fn: func(r *sim.Result) float64 { return r.Audit.Exactness() }}
	MetricRecall = Metric{Name: "mean recall", Fn: func(r *sim.Result) float64 { return r.Audit.MeanRecall() }}
	MetricRadErr = Metric{Name: "radius err", Fn: func(r *sim.Result) float64 { return r.Audit.MeanRadiusError() }}
	// MetricLink and MetricHandoff read the federation counters a
	// clustered method exposes through sim.ExtraReporter; both are zero
	// for single-server methods.
	MetricLink = Metric{Name: "link msgs/tick", Fn: func(r *sim.Result) float64 {
		return r.Extra["link_sent"] / float64(r.Config.Ticks)
	}}
	MetricHandoff = Metric{Name: "handoffs", Fn: func(r *sim.Result) float64 {
		return r.Extra["object_handoffs"] + r.Extra["query_handoffs"]
	}}
	// MetricLoadCV is the coefficient of variation (stddev/mean) of the
	// federation nodes' measured-phase busy time, read from the per-node
	// counters a clustered method exports — 0 means a perfectly even
	// load, and 0 for single-server methods.
	MetricLoadCV = Metric{Name: "load cv", Fn: func(r *sim.Result) float64 {
		var busy []float64
		for i := 0; ; i++ {
			v, ok := r.Extra[fmt.Sprintf("node%d_busy_us", i)]
			if !ok {
				break
			}
			busy = append(busy, v)
		}
		if len(busy) < 2 {
			return 0
		}
		var mean float64
		for _, v := range busy {
			mean += v
		}
		mean /= float64(len(busy))
		if mean == 0 {
			return 0
		}
		var ss float64
		for _, v := range busy {
			d := v - mean
			ss += d * d
		}
		return math.Sqrt(ss/float64(len(busy))) / mean
	}, clock: true}
	// MetricMoves counts the balancer's applied column moves (0 for
	// static partitions).
	MetricMoves = Metric{Name: "col moves", Fn: func(r *sim.Result) float64 {
		return r.Extra["column_moves"]
	}}
	// The staleness and report-gap metrics read the observability
	// histograms a run collects when its config sets Observe; they are
	// zero when observation is off. Quantiles come from fixed histogram
	// bucket bounds, so the rendered tables stay deterministic.
	MetricStaleP50  = Metric{Name: "stale p50", Fn: histQuantile(staleHist, 0.50)}
	MetricStaleP90  = Metric{Name: "stale p90", Fn: histQuantile(staleHist, 0.90)}
	MetricStaleP99  = Metric{Name: "stale p99", Fn: histQuantile(staleHist, 0.99)}
	MetricStaleMean = Metric{Name: "stale mean", Fn: func(r *sim.Result) float64 {
		if r.Staleness == nil {
			return 0
		}
		return r.Staleness.Mean()
	}}
	MetricGapP90 = Metric{Name: "report gap p90", Fn: histQuantile(gapHist, 0.90)}
	// MetricServLatP99 is the tail of the per-tick server processing
	// time distribution (microseconds) — the latency view of the shard
	// scaling story, where the mean (MetricServer) can hide stalls.
	MetricServLatP99 = Metric{Name: "server p99 µs", Fn: histQuantile(servLatHist, 0.99), clock: true}
)

func staleHist(r *sim.Result) *metrics.Histogram   { return r.Staleness }
func gapHist(r *sim.Result) *metrics.Histogram     { return r.ReportGaps }
func servLatHist(r *sim.Result) *metrics.Histogram { return r.ServerLatencyUS }

// histQuantile builds a metric function reading quantile p of one of a
// result's observability histograms.
func histQuantile(get func(*sim.Result) *metrics.Histogram, p float64) func(*sim.Result) float64 {
	return func(r *sim.Result) float64 {
		h := get(r)
		if h == nil {
			return 0
		}
		return h.Quantile(p)
	}
}

// Point is one x-axis value of a sweep: a label and the fully built
// simulation configuration for it.
type Point struct {
	Label  string
	Config sim.Config
}

// Experiment is one figure or table: a sweep crossed with methods and
// metrics.
type Experiment struct {
	ID      string // e.g. "fig5"
	Title   string
	XLabel  string
	Points  []Point
	Methods []MethodSpec
	Metrics []Metric
	// Seeds > 1 repeats every cell with distinct workload seeds and
	// reports the mean, which removes single-trajectory noise from the
	// tables.
	Seeds int
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string // method×metric column headers
	Rows    []Row
}

// Row is one sweep point's measurements.
type Row struct {
	Label  string
	Values []float64
}

// Run executes every (point × method × seed) cell of the experiment on
// runtime.GOMAXPROCS workers (par.Each) and aggregates the results in
// enumeration order. Each cell is a fully independent sim.Run — it
// builds its own method instance and derives its own config seed — so
// the returned table is byte-identical to a sequential execution for
// every worker count. An experiment with a metric that reads the clock
// runs its cells one at a time (serial), so sibling runs cannot perturb
// its timings. After a failed cell, the cells not yet started return at
// once.
func (e *Experiment) Run() (*Table, error) {
	t := &Table{ID: e.ID, Title: e.Title, XLabel: e.XLabel}
	for _, m := range e.Methods {
		for _, metric := range e.Metrics {
			if len(e.Metrics) == 1 {
				t.Columns = append(t.Columns, m.Name)
			} else {
				t.Columns = append(t.Columns, m.Name+" "+metric.Name)
			}
		}
	}
	seeds := e.Seeds
	if seeds < 1 {
		seeds = 1
	}

	// Cell ci = ((pi × methods) + mi) × seeds + rep.
	nM := len(e.Methods)
	cells := len(e.Points) * nM * seeds
	values := make([][]float64, cells) // metric values per cell
	errs := make([]error, cells)
	var failed atomic.Bool
	workers := 0 // runtime.GOMAXPROCS
	if e.serial() {
		workers = 1
	}
	par.Each(cells, workers, func(_, ci int) {
		if failed.Load() {
			return
		}
		rep := ci % seeds
		mi := ci / seeds % nM
		pi := ci / seeds / nM
		m, pt := e.Methods[mi], e.Points[pi]
		method, err := m.Build()
		if err != nil {
			errs[ci] = fmt.Errorf("exp %s: build %s: %w", e.ID, m.Name, err)
			failed.Store(true)
			return
		}
		cfg := pt.Config
		cfg.Seed += int64(rep) * 1000003
		res, err := sim.Run(cfg, method)
		if err != nil {
			errs[ci] = fmt.Errorf("exp %s: run %s @ %s: %w", e.ID, m.Name, pt.Label, err)
			failed.Store(true)
			return
		}
		vals := make([]float64, len(e.Metrics))
		for i, metric := range e.Metrics {
			vals[i] = metric.Fn(res)
		}
		values[ci] = vals
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Aggregate in enumeration order: mean over seeds per (point, method).
	ci := 0
	for pi := range e.Points {
		row := Row{Label: e.Points[pi].Label}
		for mi := 0; mi < nM; mi++ {
			sums := make([]float64, len(e.Metrics))
			for rep := 0; rep < seeds; rep++ {
				for i, v := range values[ci] {
					sums[i] += v
				}
				ci++
			}
			for i := range sums {
				row.Values = append(row.Values, sums[i]/float64(seeds))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// serial reports whether the experiment's cells run one at a time:
// exactly when one of its metrics reads the clock.
func (e *Experiment) serial() bool {
	return slices.ContainsFunc(e.Metrics, func(m Metric) bool { return m.clock })
}

// Render formats the table as fixed-width text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %16.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown formats the table as a GitHub-flavored markdown table. Pipes
// in labels and method names (e.g. a method named "A|B") are escaped so
// they cannot break the cell structure.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |", mdEscape(t.XLabel))
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", mdEscape(c))
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", mdEscape(r.Label))
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %.2f |", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mdEscape neutralizes characters that would break a markdown table
// cell: pipes are backslash-escaped and newlines become spaces.
func mdEscape(s string) string {
	if !strings.ContainsAny(s, "|\n") {
		return s
	}
	s = strings.ReplaceAll(s, "|", `\|`)
	return strings.ReplaceAll(s, "\n", " ")
}

// CSV formats the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Column returns the values of the named column in row order.
func (t *Table) Column(name string) ([]float64, bool) {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, false
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Values[idx]
	}
	return out, true
}

// Profile selects the sweep values and the base configuration for a
// suite. Full is the paper-scale grid; Smoke shrinks it so the whole
// suite runs in seconds.
type Profile struct {
	Base  sim.Config
	Proto core.Config
	CITau float64
	// CBTau, when positive, adds the predictive dead-reckoning baseline
	// to every comparison (an extension beyond the paper's own two
	// baselines).
	CBTau float64
	Ns    []int
	// LargeNs are the fig19 large-population points. They run audit-free
	// with a short horizon, so they can reach populations (100k+) far
	// beyond what the audited sweeps afford.
	LargeNs    []int
	Ks         []int
	ObjSpeeds  []float64
	QrySpeeds  []float64
	Qs         []int
	Horizons   []int
	Taus       []float64
	Thetas     []float64
	Mobilities []string
	Grids      []int
	Shards     []int
	// Nodes are the federation sizes of the fig20 cluster-scaling sweep
	// (internal/cluster: one spatial partition per node).
	Nodes  []int
	Losses []float64
	// BurstLosses are stationary Gilbert–Elliott loss rates for the
	// burst-loss sweep (fig18); BurstLen is the mean burst length in
	// delivery attempts.
	BurstLosses []float64
	BurstLen    float64
}

// FullProfile is the paper-scale evaluation grid from DESIGN.md §5.
func FullProfile() Profile {
	return Profile{
		Base:        workload.Default(),
		Proto:       core.DefaultConfig(),
		CITau:       50,
		CBTau:       50,
		Ns:          []int{5000, 10000, 20000, 40000, 80000},
		LargeNs:     []int{25000, 50000, 100000, 1000000},
		Ks:          []int{1, 5, 10, 20, 50},
		ObjSpeeds:   []float64{5, 10, 20, 40},
		QrySpeeds:   []float64{0, 5, 20, 40},
		Qs:          []int{1, 16, 64, 256, 1024},
		Horizons:    []int{5, 10, 20, 40, 80},
		Taus:        []float64{10, 50, 100, 250},
		Thetas:      []float64{0, 10, 25, 50},
		Mobilities:  []string{workload.ModelWaypoint, workload.ModelDirection, workload.ModelManhattan},
		Grids:       []int{16, 32, 64, 128},
		Shards:      []int{1, 2, 4, 8},
		Nodes:       []int{1, 2, 4, 8},
		Losses:      []float64{0, 0.01, 0.02, 0.05, 0.10},
		BurstLosses: []float64{0, 0.05, 0.10, 0.20, 0.30},
		BurstLen:    8,
	}
}

// SmokeProfile is the same experiment structure at unit-test scale.
func SmokeProfile() Profile {
	base := workload.Quick()
	base.Ticks = 40
	proto := core.DefaultConfig()
	proto.HorizonTicks = 8
	proto.MinProbeRadius = 100
	return Profile{
		Base:        base,
		Proto:       proto,
		CITau:       20,
		CBTau:       20,
		Ns:          []int{300, 600, 1200},
		LargeNs:     []int{10000, 30000, 100000},
		Ks:          []int{1, 5, 10},
		ObjSpeeds:   []float64{5, 10, 20},
		QrySpeeds:   []float64{0, 10, 20},
		Qs:          []int{1, 8, 32},
		Horizons:    []int{4, 8, 16},
		Taus:        []float64{10, 50},
		Thetas:      []float64{0, 10, 50},
		Mobilities:  []string{workload.ModelWaypoint, workload.ModelDirection, workload.ModelManhattan},
		Grids:       []int{8, 16, 32},
		Shards:      []int{1, 4},
		Nodes:       []int{1, 2, 4, 8},
		Losses:      []float64{0, 0.05},
		BurstLosses: []float64{0, 0.10},
		BurstLen:    4,
	}
}

func (p Profile) methods() []MethodSpec {
	ms := []MethodSpec{CP(), CI(p.CITau)}
	if p.CBTau > 0 {
		ms = append(ms, CB(p.CBTau))
	}
	return append(ms, DKNN(p.Proto))
}

// Suite builds every experiment in the reconstructed evaluation.
func Suite(p Profile) []*Experiment {
	return []*Experiment{
		p.Fig5ObjectScaling(),
		p.Fig6VaryK(),
		p.Fig7ObjectSpeed(),
		p.Fig8QuerySpeed(),
		p.Fig9Downlink(),
		p.Fig10ServerCPU(),
		p.Fig11QueryScaling(),
		p.Fig12SlackAblation(),
		p.Fig13GridResolution(),
		p.Fig15Skew(),
		p.Fig16ShardScaling(),
		p.Fig17LossRobustness(),
		p.Fig18BurstLoss(),
		p.Fig19LargeScale(),
		p.Fig20ClusterScaling(),
		p.Fig21Staleness(),
		p.Fig22AdaptiveBalance(),
		p.Table3Accuracy(),
		p.Table4Mobility(),
	}
}

// Fig5ObjectScaling: uplink/tick vs object population.
func (p Profile) Fig5ObjectScaling() *Experiment {
	e := &Experiment{
		ID: "fig5", Title: "Uplink messages per tick vs number of objects",
		XLabel: "N", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	for _, n := range p.Ns {
		e.Points = append(e.Points, Point{fmt.Sprint(n), workload.WithObjects(p.Base, n)})
	}
	return e
}

// Fig6VaryK: uplink/tick vs k.
func (p Profile) Fig6VaryK() *Experiment {
	e := &Experiment{
		ID: "fig6", Title: "Uplink messages per tick vs k",
		XLabel: "k", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	for _, k := range p.Ks {
		e.Points = append(e.Points, Point{fmt.Sprint(k), workload.WithK(p.Base, k)})
	}
	return e
}

// Fig7ObjectSpeed: uplink/tick vs maximum object speed.
func (p Profile) Fig7ObjectSpeed() *Experiment {
	e := &Experiment{
		ID: "fig7", Title: "Uplink messages per tick vs object speed",
		XLabel: "Vobj (m/s)", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	for _, v := range p.ObjSpeeds {
		e.Points = append(e.Points, Point{fmt.Sprint(v), workload.WithObjectSpeed(p.Base, v)})
	}
	return e
}

// Fig8QuerySpeed: uplink/tick vs maximum query speed.
func (p Profile) Fig8QuerySpeed() *Experiment {
	e := &Experiment{
		ID: "fig8", Title: "Uplink messages per tick vs query speed",
		XLabel: "Vqry (m/s)", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	for _, v := range p.QrySpeeds {
		e.Points = append(e.Points, Point{fmt.Sprint(v), workload.WithQuerySpeed(p.Base, v)})
	}
	return e
}

// Fig9Downlink: downlink+broadcast transmissions vs object population.
func (p Profile) Fig9Downlink() *Experiment {
	e := &Experiment{
		ID: "fig9", Title: "Downlink+broadcast transmissions per tick vs number of objects",
		XLabel: "N", Methods: p.methods(), Metrics: []Metric{MetricDown},
	}
	for _, n := range p.Ns {
		e.Points = append(e.Points, Point{fmt.Sprint(n), workload.WithObjects(p.Base, n)})
	}
	return e
}

// Fig10ServerCPU: server processing time vs object population.
func (p Profile) Fig10ServerCPU() *Experiment {
	e := &Experiment{
		ID: "fig10", Title: "Server processing time per tick vs number of objects",
		XLabel: "N", Methods: p.methods(), Metrics: []Metric{MetricServer},
	}
	for _, n := range p.Ns {
		e.Points = append(e.Points, Point{fmt.Sprint(n), workload.WithObjects(p.Base, n)})
	}
	return e
}

// Fig11QueryScaling: uplink/tick vs number of concurrent queries.
func (p Profile) Fig11QueryScaling() *Experiment {
	e := &Experiment{
		ID: "fig11", Title: "Uplink messages per tick vs number of queries",
		XLabel: "Q", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	for _, q := range p.Qs {
		e.Points = append(e.Points, Point{fmt.Sprint(q), workload.WithQueries(p.Base, q)})
	}
	return e
}

// Fig12SlackAblation: DKNN uplink and broadcast vs the horizon H, each
// fixed H of the sweep beside the derived per-monitor horizon H_q.
func (p Profile) Fig12SlackAblation() *Experiment {
	e := &Experiment{
		ID: "fig12", Title: "DKNN cost vs reinstall horizon H (ablation)",
		XLabel: "H (ticks)", Metrics: []Metric{MetricUplink, MetricDown},
	}
	// Horizon varies the *method*, not the workload: encode each H as a
	// method column over a single workload point. The last column, H = 0,
	// is the derived horizon.
	for _, h := range append(slices.Clip(p.Horizons), 0) {
		proto := p.Proto
		proto.HorizonTicks = h
		name := fmt.Sprintf("DKNN(H=%d)", h)
		if h == 0 {
			name = "DKNN(H=H_q)"
		}
		e.Methods = append(e.Methods, MethodSpec{
			Name:  name,
			Build: func() (sim.Method, error) { return core.New(proto) },
		})
	}
	e.Points = []Point{{"default", p.Base}}
	return e
}

// Fig13GridResolution: sensitivity of cost to the grid cell size — an
// ablation beyond the paper's grid: finer cells shrink broadcast waste
// but add server index work.
func (p Profile) Fig13GridResolution() *Experiment {
	e := &Experiment{
		ID: "fig13", Title: "Cost vs grid resolution (ablation)",
		XLabel:  "grid",
		Methods: []MethodSpec{CP(), DKNN(p.Proto)},
		Metrics: []Metric{MetricUplink, MetricDown, MetricServer},
	}
	base := p.Base
	for _, g := range p.Grids {
		cfg := base
		cfg.Cols, cfg.Rows = g, g
		e.Points = append(e.Points, Point{fmt.Sprintf("%dx%d", g, g), cfg})
	}
	return e
}

// Fig15Skew: uniform vs hotspot-clustered populations — skew stresses the
// grid-based servers (dense cells) while the distributed protocol's
// regions simply shrink where density is high.
func (p Profile) Fig15Skew() *Experiment {
	e := &Experiment{
		ID: "fig15", Title: "Population skew: uniform vs hotspot clusters (ablation)",
		XLabel:  "population",
		Methods: []MethodSpec{CP(), DKNN(p.Proto)},
		Metrics: []Metric{MetricUplink, MetricServer},
	}
	for _, kind := range []string{workload.ModelWaypoint, workload.ModelHotspot} {
		cfg, err := workload.WithMobility(p.Base, kind)
		if err != nil {
			continue
		}
		e.Points = append(e.Points, Point{kind, cfg})
	}
	return e
}

// Fig16ShardScaling: the server's per-tick wall time as queries are
// partitioned over parallel shards — the "scalable distributed
// processing" extension. The wireless traffic is provably unchanged
// (tested); only the server interior parallelizes, and the clock around
// each server call says what that buys on the host that runs it.
func (p Profile) Fig16ShardScaling() *Experiment {
	mkShard := func(n int) MethodSpec {
		return MethodSpec{
			Name:  fmt.Sprintf("DKNN[%d shards]", n),
			Build: func() (sim.Method, error) { return shard.NewBatchedMethod(n, p.Proto) },
		}
	}
	e := &Experiment{
		ID: "fig16", Title: "Server time vs shard count (ablation)",
		XLabel:  "Q",
		Metrics: []Metric{MetricServer, MetricExact},
	}
	for _, n := range p.Shards {
		e.Methods = append(e.Methods, mkShard(n))
	}
	// The heaviest query loads, where the shards have the most to share.
	qs := p.Qs
	if len(qs) > 3 {
		qs = qs[len(qs)-3:]
	}
	for _, q := range qs {
		e.Points = append(e.Points, Point{fmt.Sprint(q), workload.WithQueries(p.Base, q)})
	}
	return e
}

// Fig17LossRobustness: answer quality under independent message loss on
// all three directions — graceful degradation, not failure. DKNN runs
// with a resync period (the lossy-deployment configuration).
func (p Profile) Fig17LossRobustness() *Experiment {
	proto := p.Proto
	proto.ResyncTicks = 3 * proto.MaxHorizonTicks()
	e := &Experiment{
		ID: "fig17", Title: "Answer quality vs message loss (all directions)",
		XLabel:  "loss",
		Methods: []MethodSpec{CI(p.CITau), DKNN(proto)},
		Metrics: []Metric{MetricRecall, MetricUplink},
	}
	for _, loss := range p.Losses {
		cfg := p.Base
		cfg.UplinkLoss = loss
		cfg.DownlinkLoss = loss
		cfg.BroadcastLoss = loss
		e.Points = append(e.Points, Point{fmt.Sprintf("%.0f%%", loss*100), cfg})
	}
	return e
}

// Fig18BurstLoss: answer quality and uplink cost under bursty
// (Gilbert–Elliott) loss on all three directions. DKNN runs the full
// lossy-deployment configuration — delta answers over the sequenced
// stream, client-driven answer-resync, and a periodic resync probe — so
// the sweep measures exactly the recovery machinery this protocol adds
// over independent loss (fig17).
func (p Profile) Fig18BurstLoss() *Experiment {
	proto := p.Proto
	proto.ResyncTicks = 3 * proto.MaxHorizonTicks()
	proto.DeltaAnswers = true
	e := &Experiment{
		ID: "fig18", Title: "Answer quality vs bursty loss (Gilbert–Elliott, all directions)",
		XLabel:  "loss",
		Methods: []MethodSpec{CI(p.CITau), DKNN(proto)},
		Metrics: []Metric{MetricRecall, MetricUplink},
	}
	for _, loss := range p.BurstLosses {
		cfg := p.Base
		ge := simnet.BurstLoss(loss, p.BurstLen)
		cfg.Faults = simnet.FaultConfig{UplinkGE: ge, DownlinkGE: ge, BroadcastGE: ge}
		e.Points = append(e.Points, Point{fmt.Sprintf("%.0f%%", loss*100), cfg})
	}
	return e
}

// Fig19LargeScale: per-tick traffic and server wall-clock at populations
// far beyond the paper's sweeps, up to one million objects — feasible
// since the simulated medium resolves broadcast audiences through the
// per-cell client index instead of scanning the whole population per
// message, and since the batched shard pipeline (internal/shard) drains
// a tick's arrivals shard-parallel. Alongside the single-server DKNN the
// sweep runs the batched pipeline at every profile shard count, so the
// server columns show the shard scaling directly at each N; observation
// is on, so the p99 column reads the per-tick server latency histogram,
// not just the mean. Auditing is disabled (maintaining ground truth at
// these populations would dominate the runtime; answer quality at scale
// is covered by table3) and each point runs a short horizon: the
// steady-state per-tick costs are what scale with N, not the duration.
func (p Profile) Fig19LargeScale() *Experiment {
	mkBatched := func(n int) MethodSpec {
		return MethodSpec{
			Name:  fmt.Sprintf("DKNN[%d shards, batched]", n),
			Build: func() (sim.Method, error) { return shard.NewBatchedMethod(n, p.Proto) },
		}
	}
	e := &Experiment{
		ID: "fig19", Title: "Large-population scaling: traffic and server time (audit-free)",
		XLabel:  "N",
		Methods: []MethodSpec{CI(p.CITau), DKNN(p.Proto)},
		Metrics: []Metric{MetricUplink, MetricDown, MetricServer, MetricServLatP99},
	}
	for _, n := range p.Shards {
		e.Methods = append(e.Methods, mkBatched(n))
	}
	for _, n := range p.LargeNs {
		cfg := workload.WithObjects(p.Base, n)
		cfg.Ticks = 12
		cfg.Warmup = 3
		cfg.DisableAudit = true
		cfg.Observe = true
		e.Points = append(e.Points, Point{fmt.Sprint(n), cfg})
	}
	return e
}

// Fig20ClusterScaling: the spatially partitioned federation
// (internal/cluster) as the node count grows — per-node server time
// falls with the partition while the inter-node link and the boundary
// handoffs are the price paid for it. The link is ideal (zero latency,
// no loss), so the answers stay exact at every node count: the
// exactness column is the invariant, the other columns are the
// scaling story.
func (p Profile) Fig20ClusterScaling() *Experiment {
	mkCluster := func(n int) MethodSpec {
		return MethodSpec{
			Name: fmt.Sprintf("DKNN[%d nodes]", n),
			Build: func() (sim.Method, error) {
				return cluster.NewMethod(n, p.Proto, cluster.LinkConfig{})
			},
		}
	}
	e := &Experiment{
		ID: "fig20", Title: "Federation scaling: per-node server time, link traffic, handoffs",
		XLabel:  "N",
		Metrics: []Metric{MetricServer, MetricLink, MetricHandoff, MetricExact},
	}
	for _, n := range p.Nodes {
		e.Methods = append(e.Methods, mkCluster(n))
	}
	for _, n := range p.Ns {
		e.Points = append(e.Points, Point{fmt.Sprint(n), workload.WithObjects(p.Base, n)})
	}
	return e
}

// Fig21Staleness: the client-observed answer staleness distribution as
// message loss grows — the observability layer's histograms turned into
// a sweep. Every measured tick samples now − answer.At per query (how
// old the answer the user currently sees is), and the uplink
// inter-report gap histogram is fed from the trace stream; the reported
// quantiles are histogram bucket bounds over integer tick samples, so
// the table is deterministic. The recall column (fig17) says how often
// the answer is right; this one says how long it takes to become right
// again after loss knocks it stale. DKNN runs the lossy-deployment
// configuration. Single-server by choice: the sweep is about the client's
// view of radio loss, which the federation's node count does not change
// (fig 20 covers the federation on its own axis).
func (p Profile) Fig21Staleness() *Experiment {
	proto := p.Proto
	proto.ResyncTicks = 3 * proto.MaxHorizonTicks()
	e := &Experiment{
		ID: "fig21", Title: "Answer staleness and report-gap distributions vs message loss",
		XLabel:  "loss",
		Methods: []MethodSpec{DKNN(proto)},
		Metrics: []Metric{MetricStaleP50, MetricStaleP90, MetricStaleP99, MetricStaleMean, MetricGapP90},
	}
	for _, loss := range p.Losses {
		cfg := p.Base
		cfg.UplinkLoss = loss
		cfg.DownlinkLoss = loss
		cfg.BroadcastLoss = loss
		cfg.Observe = true
		e.Points = append(e.Points, Point{fmt.Sprintf("%.0f%%", loss*100), cfg})
	}
	return e
}

// Fig22AdaptiveBalance: adaptive partitioning (internal/balance) against
// the static even split under hotspot-clustered skew, for each
// federation size. The static strips leave the hotspot node doing nearly
// all the work; the balancer, which reads each node's uplink count,
// shifts boundary columns away from it, so the load-CV column
// (stddev/mean of per-node busy time, which the balancer never reads)
// and the server p99 tail should both fall — while the exactness column
// pins the migration invariant: every audited answer stays exact on the
// very ticks columns move. The link is ideal (zero latency, no loss),
// matching fig20.
func (p Profile) Fig22AdaptiveBalance() *Experiment {
	bcfg := balance.Config{IntervalTicks: 8, MinGain: 0.02}
	mkStatic := func(n int) MethodSpec {
		return MethodSpec{
			Name: fmt.Sprintf("static[%d nodes]", n),
			Build: func() (sim.Method, error) {
				return cluster.NewMethod(n, p.Proto, cluster.LinkConfig{})
			},
		}
	}
	mkAdaptive := func(n int) MethodSpec {
		return MethodSpec{
			Name: fmt.Sprintf("adaptive[%d nodes]", n),
			Build: func() (sim.Method, error) {
				return cluster.NewAdaptiveMethod(n, p.Proto, cluster.LinkConfig{}, bcfg)
			},
		}
	}
	e := &Experiment{
		ID: "fig22", Title: "Adaptive partitioning under hotspot skew: load balance vs static strips",
		XLabel:  "workload",
		Metrics: []Metric{MetricLoadCV, MetricServLatP99, MetricMoves, MetricExact},
	}
	for _, n := range p.Nodes {
		if n < 2 {
			continue // a single node is trivially balanced
		}
		e.Methods = append(e.Methods, mkStatic(n), mkAdaptive(n))
	}
	if cfg, err := workload.WithMobility(p.Base, workload.ModelHotspot); err == nil {
		cfg.Observe = true
		e.Points = append(e.Points, Point{workload.ModelHotspot, cfg})
	}
	return e
}

// Table2Breakdown is rendered separately (it needs the counter table, not
// a scalar metric); see RunTable2.
func (p Profile) RunTable2() (string, error) {
	var b strings.Builder
	b.WriteString("table2 — Message breakdown by kind and direction (default workload)\n\n")
	for _, m := range p.methods() {
		method, err := m.Build()
		if err != nil {
			return "", err
		}
		res, err := sim.Run(p.Base, method)
		if err != nil {
			return "", fmt.Errorf("table2: %s: %w", m.Name, err)
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", m.Name, res.Traffic.BreakdownTable())
	}
	return b.String(), nil
}

// Table3Accuracy: answer quality and uplink cost across the approximation
// knobs (CI τ sweep and DKNN θ sweep).
func (p Profile) Table3Accuracy() *Experiment {
	e := &Experiment{
		ID: "table3", Title: "Accuracy/cost tradeoff: CI τ sweep and DKNN θ sweep",
		XLabel:  "config",
		Metrics: []Metric{MetricUplink, MetricExact, MetricRecall, MetricRadErr},
	}
	for _, tau := range p.Taus {
		e.Methods = append(e.Methods, CI(tau))
	}
	for _, theta := range p.Thetas {
		proto := p.Proto
		proto.ThetaInside = theta
		e.Methods = append(e.Methods, MethodSpec{
			Name:  fmt.Sprintf("DKNN(θ=%g)", theta),
			Build: func() (sim.Method, error) { return core.New(proto) },
		})
	}
	e.Points = []Point{{"default", p.Base}}
	return e
}

// Table4Mobility: uplink/tick under each mobility model.
func (p Profile) Table4Mobility() *Experiment {
	e := &Experiment{
		ID: "table4", Title: "Uplink messages per tick per mobility model",
		XLabel: "model", Methods: p.methods(), Metrics: []Metric{MetricUplink},
	}
	kinds := append([]string(nil), p.Mobilities...)
	sort.Strings(kinds)
	for _, kind := range kinds {
		cfg, err := workload.WithMobility(p.Base, kind)
		if err != nil {
			continue
		}
		e.Points = append(e.Points, Point{kind, cfg})
	}
	return e
}
