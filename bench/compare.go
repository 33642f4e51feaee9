package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// contract is the part of BENCHMARK.json -compare needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// verdict classifies b against a for one metric: the change in the
// metric's bad direction, as a share of a, against the bound.
func verdict(a, b float64, better string, bound float64) string {
	if a == 0 {
		return "unresolved"
	}
	worse := (b - a) / a
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	default:
		return "within"
	}
}

// compareFiles applies each end-to-end metric's direction and bound to
// every workload of two result files and prints one row per workload.
// It returns non-zero on any "worse" or any exact_share below 1.
func compareFiles(specPath, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	c, err := readContract(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		return fail(err)
	}
	return compareResults(os.Stdout, c, a, b)
}

func compareResults(out io.Writer, c *contract, a, b *runResult) int {
	byName := func(r *runResult) map[string]*workloadResult {
		m := map[string]*workloadResult{}
		for i := range r.Workloads {
			m[r.Workloads[i].Name] = &r.Workloads[i]
		}
		return m
	}
	wa, wb := byName(a), byName(b)
	status := 0
	for _, w := range c.Workloads {
		ra, rb := wa[w.Name], wb[w.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(out, "%-14s unresolved: missing from one of the files\n", w.Name)
			continue
		}
		groups := map[string][]string{}
		for _, m := range c.EndToEnd {
			va, okA := ra.EndToEnd[m.Name]
			vb, okB := rb.EndToEnd[m.Name]
			v := "unresolved"
			if okA && okB {
				v = verdict(va.Value, vb.Value, m.Better, m.Bound)
			}
			if m.Name == "exact_share" && okB && vb.Value < 1 {
				v = "worse"
			}
			if v != "within" {
				groups[v] = append(groups[v], fmt.Sprintf("%s %.4g->%.4g", m.Name, va.Value, vb.Value))
			} else {
				groups[v] = append(groups[v], m.Name)
			}
		}
		if rb.Failed > 0 {
			groups["worse"] = append(groups["worse"], fmt.Sprintf("%d failed operations", rb.Failed))
		}
		if len(groups["worse"]) > 0 {
			status = 1
		}
		fmt.Fprintf(out, "%-14s better %d, within %d, worse %d, unresolved %d\n", w.Name,
			len(groups["better"]), len(groups["within"]), len(groups["worse"]), len(groups["unresolved"]))
		for _, k := range []string{"worse", "unresolved", "better"} {
			if len(groups[k]) > 0 {
				fmt.Fprintf(out, "    %s: %s\n", k, strings.Join(groups[k], "; "))
			}
		}
	}
	return status
}
