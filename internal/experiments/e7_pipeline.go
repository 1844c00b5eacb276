package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// E7Config parameterizes the parallel-pipeline experiment.
type E7Config struct {
	Workers []int         // worker counts to sweep (default 1,2,4,8 + GOMAXPROCS)
	Measure time.Duration // wall time per point (default 500ms)
	Procs   int           // GOMAXPROCS for the run; 0 = NumCPU (restored after)
}

// E7Point is one measured worker count.
type E7Point struct {
	Workers      int     `json:"workers"`
	FramesPerSec float64 `json:"frames_per_sec"`
	SpeedupVs1   float64 `json:"speedup_vs_1"`
}

// E7Result is the machine-readable output (BENCH_e7.json). Scaling is
// bounded by GOMAXPROCS: on a single-core host every worker count
// timeshares one CPU and speedup_vs_1 hovers around 1.0; the datapath
// itself has no serialization left to limit it.
type E7Result struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	MeasureMS  int64     `json:"measure_ms"`
	Warning    string    `json:"warning,omitempty"` // set when cores < workers: speedups are not meaningful
	Points     []E7Point `json:"points"`
}

func runE7(p Params) (*Table, any, error) {
	cfg := E7Config{}
	if p.Quick {
		cfg.Workers = []int{1, 4}
		cfg.Measure = 100 * time.Millisecond
	}
	return E7PipelineParallel(cfg)
}

// E7PipelineParallel measures lock-free datapath throughput versus the
// number of goroutines pumping frames through one shared switch
// (DESIGN.md "Concurrency model"). It reports aggregate frames/s per
// worker count and the speedup over a single worker.
func E7PipelineParallel(cfg E7Config) (*Table, *E7Result, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 500 * time.Millisecond
	}
	workers := WorkerSweep(cfg.Workers...)
	if len(workers) == 0 {
		return nil, nil, fmt.Errorf("E7: no worker count >= 1 in %v", cfg.Workers)
	}
	maxW := slices.Max(workers)
	sw, frames, err := LaneSwitch(maxW)
	if err != nil {
		return nil, nil, err
	}

	// The original harness only *reported* GOMAXPROCS and so silently
	// measured worker scaling on however many procs the runner happened
	// to give it. Set it explicitly (default: every core) and restore on
	// exit, and flag the run when the host can't back the sweep.
	procs := cfg.Procs
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	orig := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(orig)

	res := &E7Result{
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		MeasureMS:  cfg.Measure.Milliseconds(),
		Warning:    CoresWarning(min(procs, runtime.NumCPU()), maxW),
	}
	tbl := newTable("e7", "workers", "frames/s", "speedup")
	tbl.Notes = []string{fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; speedup is bounded by available cores",
		res.GOMAXPROCS, res.NumCPU)}
	if res.Warning != "" {
		tbl.Notes = append(tbl.Notes, "WARNING: "+res.Warning)
	}

	var base float64
	for _, nw := range workers {
		fps := measureLanes(sw, frames, nw, 0, cfg.Measure)
		if base == 0 {
			base = fps
		}
		pt := E7Point{Workers: nw, FramesPerSec: fps, SpeedupVs1: fps / base}
		res.Points = append(res.Points, pt)
		tbl.AddRow(fmt.Sprintf("%d", nw), f0(fps), f2(pt.SpeedupVs1)+"x")
	}
	return tbl, res, nil
}
