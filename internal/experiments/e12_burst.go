package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
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
	Mode         string  `json:"mode"` // "frame", "burst" or "ring"
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

// E12BurstScaling compares the three ingress disciplines end to end:
// per-frame HandleFrame calls ("frame"), direct batched pipeline walks
// ("burst"), and the full run-to-completion path through per-port
// ingress rings and a WorkerPool ("ring"). Each is swept over worker
// count and GOMAXPROCS; speedups are computed within a (mode, procs)
// column so batching gains and core scaling are never conflated.
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
		for _, mode := range []string{"frame", "burst", "ring"} {
			base := 0.0
			for _, nw := range cfg.Workers {
				if nw < 1 {
					continue
				}
				fps, err := e12Point(mode, nw, cfg.Burst, cfg.Measure)
				if err != nil {
					return nil, nil, err
				}
				if base == 0 {
					base = fps
				}
				pt := E12Point{Mode: mode, GOMAXPROCS: procs, Workers: nw, Burst: cfg.Burst,
					FramesPerSec: fps, SpeedupVs1: fps / base}
				res.Points = append(res.Points, pt)
				tbl.AddRow(mode, fmt.Sprintf("%d", procs), fmt.Sprintf("%d", nw),
					fmt.Sprintf("%d", cfg.Burst), f0(fps), f2(pt.SpeedupVs1)+"x")
			}
		}
	}
	return tbl, res, nil
}

// e12Point measures one cell: nw ingress lanes (LaneSwitch: one flow,
// one ingress and one sink port per lane) driven in the given
// mode for the measurement window, returning aggregate frames/s.
func e12Point(mode string, nw, burstN int, measure time.Duration) (float64, error) {
	sw, frames, err := LaneSwitch(nw)
	if err != nil {
		return 0, err
	}
	switch mode {
	case "frame":
		return measureLanes(sw, frames, nw, 0, measure), nil
	case "burst":
		return measureLanes(sw, frames, nw, burstN, measure), nil
	case "ring":
		wp := dataplane.NewWorkerPool(sw, dataplane.WorkerPoolConfig{
			Workers: nw, RingSize: 1024, Burst: burstN})
		for w := 0; w < nw; w++ {
			wp.AddPort(uint32(w + 1))
		}
		wp.Start()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := wp.Ring(uint32(w + 1))
				fr := frames[w]
				for !stop.Load() {
					if !r.Enqueue(fr) {
						// Ring full: yield instead of spinning the quantum
						// away dropping — essential when producer and worker
						// timeshare one core.
						runtime.Gosched()
					}
				}
			}(w)
		}
		start := time.Now()
		before := wp.Stats().Frames
		time.Sleep(measure)
		after := wp.Stats().Frames
		elapsed := time.Since(start).Seconds()
		stop.Store(true)
		wg.Wait()
		wp.Stop()
		return float64(after-before) / elapsed, nil
	}
	return 0, fmt.Errorf("e12: unknown mode %q", mode)
}
