package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// E12Config parameterizes the burst-mode datapath scaling experiment.
type E12Config struct {
	Workers []int         // worker counts to sweep (default 1,2,4)
	Procs   []int         // GOMAXPROCS values to sweep (default 1 and NumCPU when >1)
	Burst   int           // frames per burst (default 32)
	Measure time.Duration // wall time per point (default 500ms)
}

// E12Point is one measured (mode, GOMAXPROCS, workers) cell.
type E12Point struct {
	Mode         string  `json:"mode"` // "frame" or "burst"
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Workers      int     `json:"workers"`
	Burst        int     `json:"burst"`
	FramesPerSec float64 `json:"frames_per_sec"`
	SpeedupVs1   float64 `json:"speedup_vs_1"` // vs workers=1, same mode and GOMAXPROCS
}

// E12Result is the machine-readable output (BENCH_e12.json). Unlike the
// original E7 harness, GOMAXPROCS is swept explicitly and recorded per
// point, and Warning is set whenever the host cannot actually run the
// requested parallelism — the E7 blind spot where a single-core runner
// silently reported meaningless worker scaling.
type E12Result struct {
	NumCPU    int        `json:"num_cpu"`
	MeasureMS int64      `json:"measure_ms"`
	Warning   string     `json:"warning,omitempty"`
	Points    []E12Point `json:"points"`
}

func runE12(p Params) (*Table, any, error) {
	cfg := E12Config{}
	if p.Quick {
		cfg.Workers = []int{1, 2}
		cfg.Measure = 100 * time.Millisecond
	}
	return E12BurstScaling(cfg)
}

// E12BurstScaling compares the two ways a caller hands the switch
// frames: per-frame HandleFrame calls ("frame") and batched pipeline
// walks through HandleBurst ("burst"). Each is swept over worker
// count (one caller goroutine per lane) and GOMAXPROCS; speedups are
// computed within a (mode, procs) column so batching gains and core
// scaling are never conflated.
func E12BurstScaling(cfg E12Config) (*Table, *E12Result, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4}
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1}
		if n := runtime.NumCPU(); n > 1 {
			cfg.Procs = append(cfg.Procs, n)
		}
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 32
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 500 * time.Millisecond
	}
	res := &E12Result{NumCPU: runtime.NumCPU(), MeasureMS: cfg.Measure.Milliseconds(),
		Warning: CoresWarning(runtime.NumCPU(), slices.Max(cfg.Workers))}
	tbl := newTable("e12", "mode", "procs", "workers", "burst", "frames/s", "speedup")
	tbl.Notes = []string{fmt.Sprintf("NumCPU=%d; burst=%d frames; speedup within (mode, procs) column",
		res.NumCPU, cfg.Burst)}
	if res.Warning != "" {
		tbl.Notes = append(tbl.Notes, "WARNING: "+res.Warning)
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		// measureLanes: burst 0 is HandleFrame per frame.
		for _, m := range []struct {
			name  string
			burst int
		}{{"frame", 0}, {"burst", cfg.Burst}} {
			base := 0.0
			for _, nw := range cfg.Workers {
				if nw < 1 {
					continue
				}
				// A fresh LaneSwitch per cell: one flow, one ingress and
				// one sink port per lane.
				sw, frames, err := LaneSwitch(nw)
				if err != nil {
					return nil, nil, err
				}
				fps := measureLanes(sw, frames, nw, m.burst, cfg.Measure)
				if base == 0 {
					base = fps
				}
				pt := E12Point{Mode: m.name, GOMAXPROCS: procs, Workers: nw, Burst: cfg.Burst,
					FramesPerSec: fps, SpeedupVs1: fps / base}
				res.Points = append(res.Points, pt)
				tbl.AddRow(m.name, fmt.Sprintf("%d", procs), fmt.Sprintf("%d", nw),
					fmt.Sprintf("%d", cfg.Burst), f0(fps), f2(pt.SpeedupVs1)+"x")
			}
		}
	}
	return tbl, res, nil
}
