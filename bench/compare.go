package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
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
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies the bounds of the spec to two result files, one
// row per workload x end-to-end metric: base, new, the ratio with its
// base, the bound, the verdict. Exit code 1 if any row regressed.
func compareFiles(specPath, basePath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, next report
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {basePath, &base}, {newPath, &next}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "zenbench: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-12s %-15s %-7s %14s %14s %20s %7s  %s\n",
		"workload", "metric", "unit", "base", "new", "new/base", "bound", "verdict")
	regressed := 0
	for _, wl := range names {
		b, n := base.Workloads[wl], next.Workloads[wl]
		if n == nil {
			fmt.Fprintf(stdout, "%-12s missing from %s\n", wl, newPath)
			regressed++
			continue
		}
		if n.Failed > b.Failed || (b.Correct && !n.Correct) {
			fmt.Fprintf(stdout, "%-12s failed %d -> %d, correct %v -> %v  REGRESSED\n", wl, b.Failed, n.Failed, b.Correct, n.Correct)
			regressed++
		}
		for _, m := range spec.EndToEnd {
			bv, nv := b.E2E[m.Name].Value, n.E2E[m.Name].Value
			if bv == 0 {
				fmt.Fprintf(stdout, "%-12s %-15s base is 0, no ratio\n", wl, m.Name)
				continue
			}
			ratio := nv / bv
			worse := ratio - 1 // share of the base by which new is worse
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(stdout, "%-12s %-15s %-7s %14.4f %14.4f %8.4f of %-9.4g %6.0f%%  %s\n",
				wl, m.Name, m.Unit, bv, nv, ratio, bv, m.Bound*100, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d rows regressed\n", regressed)
		return 1
	}
	return 0
}
