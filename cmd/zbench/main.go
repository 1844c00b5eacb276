// Command zbench regenerates the synthetic evaluation suite declared
// in DESIGN.md: it loops over the registry in internal/experiments and
// prints, for every experiment selected, the table or series its
// SIGCOMM'13-style counterpart would report.
//
// Usage:
//
//	zbench -exp all              # everything, full parameters
//	zbench -exp e3 -quick        # one experiment, reduced parameters
//	zbench -exp all -json DIR    # also write DIR/BENCH_<id>.json per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	registry := experiments.Registry()
	ids := registry[0].ID
	for _, e := range registry[1:] {
		ids += ", " + e.ID
	}
	exp := flag.String("exp", "all", "one experiment id ("+ids+") or all")
	quick := flag.Bool("quick", false, "reduced parameters for a fast pass")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonDir := flag.String("json", "", "also write one machine-readable BENCH_<id>.json per experiment into this directory")
	flag.Parse()

	var selected []experiments.Experiment
	for _, e := range registry {
		if *exp == "all" || strings.EqualFold(*exp, e.ID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "zbench: unknown experiment %q; -exp takes one of: %s, all\n", *exp, ids)
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "zbench: %v\n", err)
		os.Exit(1)
	}
	if *jsonDir != "" {
		if err := experiments.PrepareDir(*jsonDir); err != nil {
			fail(err)
		}
	}
	for _, e := range selected {
		rep, err := e.Report(experiments.Params{Quick: *quick, Seed: *seed})
		if err != nil {
			fail(err)
		}
		rep.Table.Fprint(os.Stdout)
		if *jsonDir != "" {
			if err := rep.WriteFile(*jsonDir); err != nil {
				fail(err)
			}
		}
	}
}
