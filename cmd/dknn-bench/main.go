// Command dknn-bench regenerates the paper's evaluation: it runs every
// experiment in the reconstructed grid (DESIGN.md §5) and prints the
// figure/table data that EXPERIMENTS.md records.
//
// Usage:
//
//	dknn-bench [-profile full|smoke] [-only fig5,table3] [-markdown]
//	           [-csv dir] [-seeds N] [-workers N] [-trace]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The full profile is paper-scale (tens of thousands of objects; expect
// minutes per experiment). The smoke profile runs the same grid at unit
// scale in seconds.
//
// -only selects experiments by id (the Suite ids and table2); an id that
// names no experiment is an error, not an empty run. -markdown prints the
// tables as EXPERIMENTS.md records them and -csv writes one file per
// experiment: those two are the machine-readable forms.
//
// -workers sets the experiment runner's worker-pool size (0 = one worker
// per core). Every (method × sweep-point × seed) cell is an independent
// seeded simulation, so the tables are byte-identical for every worker
// count; experiments that measure wall-clock quantities (fig10, fig13,
// fig15, fig16, fig19, fig20, fig22) are declared Serial and always run
// their cells one at a time so sibling runs cannot perturb their timings.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (see README.md §Profiling), which is how hot-path
// regressions in the simulated medium and the server are diagnosed from
// a reproducible command line.
//
// -trace arms a shared flight recorder on every simulation of the
// selected experiments and prints a per-event-type census after each
// one — a quick structural sanity check (probes concluded, installs
// landed, resyncs fired) without touching the tables, which stay
// byte-identical with tracing on or off.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"dmknn/internal/exp"
	"dmknn/internal/obs"
)

// selectExperiments resolves -only against the suite: the experiments
// to run, in suite order, and whether table2 (which is not an
// Experiment) is among them. An empty list selects everything.
func selectExperiments(suite []*exp.Experiment, only string) ([]*exp.Experiment, bool, error) {
	if only == "" {
		return suite, true, nil
	}
	valid := make([]string, 0, len(suite)+1)
	for _, e := range suite {
		valid = append(valid, e.ID)
	}
	valid = append(valid, "table2")
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, false, fmt.Errorf("unknown experiment id %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var picked []*exp.Experiment
	for _, e := range suite {
		if want[e.ID] {
			picked = append(picked, e)
		}
	}
	return picked, want["table2"], nil
}

func main() {
	profileName := flag.String("profile", "smoke", "experiment scale: full or smoke")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	csvDir := flag.String("csv", "", "also write one CSV per experiment into this directory")
	seeds := flag.Int("seeds", 1, "repetitions per cell with distinct workload seeds (mean reported)")
	workers := flag.Int("workers", 0, "worker pool size for experiment cells (0 = GOMAXPROCS; Serial experiments ignore it)")
	trace := flag.Bool("trace", false, "arm a flight recorder on every simulation and print a per-event census after each experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
			os.Exit(1)
		}
	}

	var profile exp.Profile
	switch *profileName {
	case "full":
		profile = exp.FullProfile()
	case "smoke":
		profile = exp.SmokeProfile()
	default:
		fmt.Fprintf(os.Stderr, "dknn-bench: unknown profile %q (want full or smoke)\n", *profileName)
		os.Exit(2)
	}
	profile.Workers = *workers

	experiments, table2, err := selectExperiments(exp.Suite(profile), *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dknn-bench: -only: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("# dknn-bench profile=%s workers=%d\n\n", *profileName, *workers)
	for _, e := range experiments {
		e.Seeds = *seeds
		var rec *obs.Recorder
		if *trace {
			// One shared recorder across the experiment's cells: the
			// census below is a structural summary, so lifetime counts
			// matter and the retained tail does not.
			rec = obs.NewRecorder(0)
			for i := range e.Points {
				e.Points[i].Config.Trace = rec
			}
		}
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dknn-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.Render())
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dknn-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if rec != nil {
			counts := rec.Counts()
			keys := make([]string, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("trace census: %d events across %d cells\n",
				rec.Total(), len(e.Points)*len(e.Methods))
			for _, k := range keys {
				fmt.Printf("  %-22s %d\n", k, counts[k])
			}
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if table2 {
		out, err := profile.RunTable2()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dknn-bench: table2: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
