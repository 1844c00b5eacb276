// Command zenbench is the repo's benchmark: five closed-loop workloads
// that follow a frame host -> pipe -> switch -> NF -> host and a flow
// packet-in -> app -> FlowMod -> first forwarded frame, reported end to
// end (untraced run) and layer by layer (traced run). See README.md.
//
//	zenbench --workload switch_fwd --seed 1 --seconds 18 --trace 0
//	zenbench --workload all --out result.json
//	zenbench --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// runner is one workload behind a name. BENCHMARK.json says why each
// was chosen.
type runner struct {
	name string
	run  func(seed int64, sc scale, tr *tracer) (*result, error)
}

func runners() []runner {
	var out []runner
	for _, wl := range switchWorkloads {
		out = append(out, runner{wl.name, wl.run})
	}
	return append(out, runner{"fabric_warm", runFabricWarm}, runner{"flow_setup", runFlowSetup})
}

// env records where the numbers were taken.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
	Load       string `json:"load"`
}

func readEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit:    "unknown",
		Transport: "in-process pipes; loopback TCP for the control channel only",
		Load:      "closed loop, one generator goroutine",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// report is the file -out writes and -compare reads.
type report struct {
	Env       env                `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zenbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of the five names")
	seed := fs.Int64("seed", 1, "workload seed; drives every generator")
	seconds := fs.Int("seconds", 18, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: traced run, prints per-layer metrics and writes the span file")
	traceOut := fs.String("trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>.jsonl)")
	out := fs.String("out", "", "write the full result as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out files: zenbench --compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration (-compare reads the bounds from it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "zenbench: --compare needs two result files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "zenbench: --seconds must be at least 1")
		return 2
	}

	var todo []runner
	for _, r := range runners() {
		if *workload == "all" || *workload == r.name {
			todo = append(todo, r)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "zenbench: unknown workload %q\n", *workload)
		return 2
	}

	traced := *trace != 0
	rep := report{Env: readEnv(), Seed: *seed, Seconds: *seconds, Trace: traced, Workloads: map[string]*result{}}
	fmt.Fprintf(stdout, "# zenbench: %d cpu, GOMAXPROCS %d, %s, commit %s\n", rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Go, rep.Env.Commit)
	fmt.Fprintf(stdout, "# load: %s; transport: %s\n", rep.Env.Load, rep.Env.Transport)
	ok := true
	for _, r := range todo {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		res, err := r.run(*seed, fullScale(*seconds, traced), tr)
		if err != nil {
			fmt.Fprintf(stderr, "zenbench: %s: %v\n", r.name, err)
			return 1
		}
		rep.Workloads[r.name] = res
		printResult(stdout, res, traced)
		if traced {
			path := *traceOut
			if path == "" {
				path = ".bench_build/trace-" + r.name + ".jsonl"
			}
			if err := tr.write(path); err != nil {
				fmt.Fprintf(stderr, "zenbench: %s: %v\n", r.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "# %d spans written to %s; mean self time per span:", len(tr.spans), path)
			self := tr.selfTimes()
			for _, name := range sortedKeys(self) {
				fmt.Fprintf(stdout, " %s=%.0fns", name, self[name])
			}
			fmt.Fprintln(stdout)
		}
		ok = ok && res.Correct
		line, err := json.Marshal(res.contract(traced))
		if err != nil {
			fmt.Fprintf(stderr, "zenbench: %s: %v\n", r.name, err)
			return 1
		}
		// The contract line: the last line of a one-workload run.
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "zenbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, the window
// statistics beside it, and the run's verdict.
func printResult(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "\n## %s  inputs_sha256=%s\n", r.Workload, r.InputsSHA256)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d failed_ratio=%g  harness.calib_mops=%.1f (median %.1f)\n",
		r.Correct, r.Attempted, r.Failed, r.FailedRatio, r.CalibMops.Value, r.CalibMops.Median)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "ERROR: %s\n", e)
	}
	row := func(name string, m metric) {
		fmt.Fprintf(w, "  %-30s %16.4f %-7s", name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, "  median %.4f  min %.4f  max %.4f  n %d  window_spread_pct %.1f", m.Median, m.Min, m.Max, m.N, m.SpreadPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "end to end (untraced windows):")
	for _, name := range sortedKeys(r.E2E) {
		row(name, r.E2E[name])
	}
	row("op_p99_us (tail, no bound)", r.tail)
	if !traced {
		return
	}
	fmt.Fprintln(w, "per layer (0 = the layer is not on this workload's path):")
	names := sortedKeys(r.Layers)
	sort.SliceStable(names, func(i, j int) bool { // harness rows last
		return !strings.HasPrefix(names[i], "harness.") && strings.HasPrefix(names[j], "harness.")
	})
	for _, name := range names {
		row(name, r.Layers[name])
	}
}
