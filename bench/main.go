// Command bench is the repository's benchmark: one lockstep harness that
// wires the system from its exported constructors, drives five named
// workloads, checks every answer against its own reference, and reports
// end-to-end metrics (untraced pass) and per-layer metrics (traced pass).
// See README.md in this directory.
//
//	go run ./bench -all [-seed N] [-seconds S] [-out run.json]
//	go run ./bench -workload NAME [-trace 0|1] [-seed N] [-seconds S]
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 3

// tracedShare is the part of the untraced pass's ticks the traced pass of
// an -all run measures.
const tracedShare = 4

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Ticks     int              `json:"ticks,omitempty"`
	Traced    int              `json:"traced_ticks,omitempty"`
	RefTicks  int              `json:"ref_ticks,omitempty"` // untraced ticks behind tick_ms_p95
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Failures  []string         `json:"failures,omitempty"`
}

func (w *workloadResult) absorb(e *episode) {
	w.Attempted += e.audited
	w.Failed += e.failed()
	if e.first != nil {
		w.Failures = append(w.Failures, "inexact answer: "+e.first.String())
	}
	for _, s := range e.errs {
		w.Failures = append(w.Failures, s)
	}
	if e.timeouts+int(e.drops)+int(e.evicted)+e.connErrs+int(e.gone) > 0 {
		w.Failures = append(w.Failures, fmt.Sprintf(
			"transport: %d quiescence time-outs, %d drops, %d evictions, %d client errors, %d disconnects",
			e.timeouts, e.drops, e.evicted, e.connErrs, e.gone))
	}
}

func values(defs []metricDef, m map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{m[d.name], d.unit}
	}
	return out
}

// runEndToEnd is the untraced pass: set up setupRepeats times, measure
// ticks ticks of the last.
func runEndToEnd(sp spec, seed int64, ticks int, res *workloadResult) (*episode, error) {
	var setups []float64
	for i := 1; i < setupRepeats; i++ {
		r, s, err := setUp(sp, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if err := r.close(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	e, err := runEpisode(sp, seed, ticks, nil)
	if e != nil {
		res.absorb(e)
	}
	if err != nil {
		return nil, err
	}
	setups = append(setups, e.setupS)
	res.Ticks = e.ticks
	res.EndToEnd = values(endToEnd, endToEndMetrics(e, setups))
	return e, nil
}

// runLayers is the traced pass over ticks ticks. ref holds the untraced
// tick times of the same workload and seed; when nil the ticks are split
// between an untraced episode that obtains them and the traced one. The
// tracing overhead compares the medians of the same ticks of both passes;
// tick_ms_p95 is the tail of the untraced ones.
func runLayers(sp spec, seed int64, ticks int, ref []float64, spansPath string, res *workloadResult) error {
	if ref == nil {
		ticks = max(ticks/2, 1)
		e, err := runEpisode(sp, seed, ticks, nil)
		if e != nil {
			res.absorb(e)
		}
		if err != nil {
			return err
		}
		ref = e.tickMS
		runtime.GC()
	}
	e, err := runEpisode(sp, seed, ticks, newRecorder())
	if e != nil {
		res.absorb(e)
	}
	if err != nil {
		return err
	}
	n := min(len(ref), len(e.tickMS))
	e.layers["trace.overhead_share"] = ratio(median(e.tickMS[:n]), median(ref[:n])) - 1
	e.layers["tick_ms_p95"] = quantile(ref, 0.95)
	res.Traced, res.RefTicks = e.ticks, len(ref)
	res.PerLayer = values(perLayer, e.layers)
	if spansPath != "" {
		return e.rec.dump(spansPath)
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload by name")
		all     = flag.Bool("all", false, "run every workload, both passes")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", refSeconds, "run length per workload; it sets how many ticks are measured, not a deadline")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		scale   = flag.String("scale", "full", "full or tiny (test-sized populations)")
		out     = flag.String("out", "", "write the full result as JSON to this file")
		spans   = flag.String("spans", "", "write the traced pass's raw spans as JSON to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		specArg = flag.String("spec", "BENCHMARK.json", "benchmark contract (metric directions and bounds) for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(*specArg, flag.Arg(0), flag.Arg(1))
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || (*all == (*name != "")) {
		fmt.Fprintln(os.Stderr, "usage: bench (-all | -workload NAME [-trace 0|1]) [-seed N] [-seconds S] [-scale full|tiny] [-out FILE] [-spans FILE]")
		return 2
	}
	host := hostInfo()
	host.warn(os.Stderr)

	result := runResult{Schema: resultSchema, Host: host, Seed: *seed, Seconds: *seconds, Scale: *scale}
	status := 0
	if *all {
		for _, sp := range specs() {
			if *scale == "tiny" {
				sp = sp.tiny()
			}
			res := workloadResult{Name: sp.name}
			ticks := sp.measured(*seconds)
			e, err := runEndToEnd(sp, *seed, ticks, &res)
			if err == nil {
				err = runLayers(sp, *seed, max(ticks/tracedShare, 1), e.tickMS, *spans, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				res.Failed++
			}
			printWorkload(os.Stdout, &res)
			if res.Failed > 0 {
				status = 1
			}
			result.Workloads = append(result.Workloads, res)
		}
	} else {
		sp, err := findSpec(*name, *scale == "tiny")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		res := workloadResult{Name: sp.name}
		if *trace == 0 {
			_, err = runEndToEnd(sp, *seed, sp.measured(*seconds), &res)
		} else {
			err = runLayers(sp, *seed, sp.measured(*seconds), nil, *spans, &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		printWorkload(os.Stdout, &res)
		result.Workloads = append(result.Workloads, res)
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, metrics})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defer fmt.Println(string(line))
		if res.Failed > 0 {
			status = 1
		}
	}
	if *out != "" {
		if err := result.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}
