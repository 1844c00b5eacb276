// Command zbench regenerates the synthetic evaluation suite declared
// in DESIGN.md: every experiment (E1-E10 plus ablations) prints the
// table or series its SIGCOMM'13-style counterpart would report.
//
// Usage:
//
//	zbench -exp all            # everything, full parameters
//	zbench -exp e3 -quick      # one experiment, reduced parameters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: e1,e1a,e2,e3,e3a,e4,e5,e6,e7,e8,e9,e10,e11,e12,e14,e15 or all")
	quick := flag.Bool("quick", false, "reduced parameters for a fast pass")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file (e7,e8,e9,e10,e11,e12,e14,e15)")
	flag.Parse()

	run := func(id string) bool {
		return *exp == "all" || strings.EqualFold(*exp, id)
	}
	ran := 0
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "zbench: %v\n", err)
		os.Exit(1)
	}

	if run("e1") {
		ran++
		cfg := experiments.E1Config{SwitchCounts: []int{1, 4, 16, 64}, Window: 8, Duration: 2 * time.Second}
		if *quick {
			cfg.SwitchCounts = []int{1, 4, 16}
			cfg.Duration = 500 * time.Millisecond
		}
		t, err := experiments.E1FlowSetup(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e1a") {
		ran++
		d := 2 * time.Second
		if *quick {
			d = 500 * time.Millisecond
		}
		t, err := experiments.E1aProactiveVsReactive(d)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e2") {
		ran++
		cfg := experiments.E2Config{Sizes: []int{100, 1000, 10000, 100000}, Measure: 200 * time.Millisecond}
		if *quick {
			cfg.Sizes = []int{100, 1000, 10000}
			cfg.Measure = 50 * time.Millisecond
		}
		experiments.E2Lookup(cfg).Fprint(os.Stdout)
	}
	if run("e3") {
		ran++
		cfg := experiments.E3Config{Seed: *seed}
		if *quick {
			cfg.Scales = []float64{0.4, 0.8, 1.2, 2.0}
		}
		t, err := experiments.E3Utilization(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e3a") {
		ran++
		ks := []int{1, 2, 4, 8}
		if *quick {
			ks = []int{1, 4}
		}
		t, err := experiments.E3aPathDiversity(ks, *seed)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e4") {
		ran++
		cfg := experiments.E4Config{Trials: 10, Seed: *seed}
		if *quick {
			cfg.Trials = 3
		}
		t, err := experiments.E4Update(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e5") {
		ran++
		cfg := experiments.E5Config{Failures: 10, Seed: *seed}
		if *quick {
			cfg.Failures = 3
		}
		t, err := experiments.E5Recovery(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if run("e6") {
		ran++
		experiments.E6Codec().Fprint(os.Stdout)
	}
	if run("e7") {
		ran++
		cfg := experiments.E7Config{}
		if *quick {
			cfg.Workers = []int{1, 4}
			cfg.Measure = 100 * time.Millisecond
		}
		t, res, err := experiments.E7PipelineParallel(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e8") {
		ran++
		cfg := experiments.E8Config{}
		if *quick {
			cfg.SwitchCounts = []int{1, 4, 16}
			cfg.Duration = 500 * time.Millisecond
		}
		t, res, err := experiments.E8ControlPlaneScaling(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e9") {
		ran++
		cfg := experiments.E9Config{}
		if *quick {
			cfg.MissBudgets = []int{2}
			cfg.Backoffs = []time.Duration{10 * time.Millisecond}
			cfg.Rules = 8
		}
		t, res, err := experiments.E9FaultRecovery(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e10") {
		ran++
		cfg := experiments.E10Config{}
		if *quick {
			cfg.Switches = 3
			cfg.Txns = 25
			cfg.OpsPerSwitch = 2
			cfg.PreRules = 4
		}
		t, res, err := experiments.E10Transactions(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e11") {
		ran++
		cfg := experiments.E11Config{}
		if *quick {
			cfg.Switches = 4
			cfg.Duration = 500 * time.Millisecond
		}
		t, res, err := experiments.E11ObservabilityOverhead(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e12") {
		ran++
		cfg := experiments.E12Config{}
		if *quick {
			cfg.Workers = []int{1, 2}
			cfg.Measure = 100 * time.Millisecond
		}
		t, res, err := experiments.E12BurstScaling(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e14") {
		ran++
		cfg := experiments.E14Config{}
		if *quick {
			cfg.Switches = 2
			cfg.Rules = 4
			cfg.LoadDuration = 200 * time.Millisecond
		}
		t, res, err := experiments.E14ClusterFailover(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if run("e15") {
		ran++
		cfg := experiments.E15Config{Seed: *seed}
		if *quick {
			cfg.Flows = 500
			cfg.Measure = 100 * time.Millisecond
			cfg.OverlayFlows = 8
			cfg.OverlayRounds = 2
		}
		t, res, err := experiments.E15StatefulNF(cfg)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
		if err := writeJSON(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "zbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline;
// an empty path (no -json flag) writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
