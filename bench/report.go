package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

const resultSchema = "dmknn-bench/1"

// host describes the machine a result was taken on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

func (h host) warn(w io.Writer) {
	if h.NProc == 1 {
		fmt.Fprintln(w, "bench: WARNING: nproc=1 — the parallel workloads (manyq-batched, fed4-hotspot, tcp-300) "+
			"cannot overlap work on this host; their timings are not comparable with multi-core results")
	}
}

// runResult is the file -out writes and -compare reads.
type runResult struct {
	Schema    string           `json:"schema"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     string           `json:"scale"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *runResult) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// printWorkload prints every metric by name with its unit, then the
// attempted/failed operations and what failed first.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s\n", res.Name)
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "  end to end (untraced, %d ticks)\n", res.Ticks)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "    %-28s %16.4f %s\n", d.name, res.EndToEnd[d.name].Value, d.unit)
		}
	}
	if res.PerLayer != nil {
		// The p95 is backed by the samples beyond it; say how many.
		fmt.Fprintf(w, "  per layer (traced, %d ticks, per tick unless the unit says otherwise; tick_ms_p95 over %d untraced ticks, %d beyond it)\n",
			res.Traced, res.RefTicks, res.RefTicks-res.RefTicks*95/100)
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-32s %16.4f %s\n", d.name, res.PerLayer[d.name].Value, d.unit)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
