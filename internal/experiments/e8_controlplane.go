package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cbench"
	"repro/internal/controller"
)

// E8Config parameterizes the control-plane scaling experiment.
type E8Config struct {
	SwitchCounts []int         // e.g. 1,4,16,64
	Window       int           // outstanding packet-ins per switch
	Duration     time.Duration // per configuration per mode
	Workers      int           // sharded-mode dispatch workers (default max(4, GOMAXPROCS))
}

// E8Point is one measured switch count: the same cbench load answered
// by the serial controller (one dispatch worker, per-message flush)
// and by the sharded one (N workers, coalesced writes).
type E8Point struct {
	Switches     int     `json:"switches"`
	SerialRPS    float64 `json:"serial_rps"`
	ShardedRPS   float64 `json:"sharded_rps"`
	Speedup      float64 `json:"speedup"`
	SerialP50MS  float64 `json:"serial_p50_ms"`
	SerialP99MS  float64 `json:"serial_p99_ms"`
	ShardedP50MS float64 `json:"sharded_p50_ms"`
	ShardedP99MS float64 `json:"sharded_p99_ms"`
}

// E8Result is the machine-readable output (BENCH_e8.json). As with E7,
// scaling is bounded by GOMAXPROCS: on a single-core host the serial
// and sharded dispatchers timeshare one CPU and speedup hovers around
// 1.0 — the claim there is "no collapse" (sharding and coalescing cost
// nothing when cores are absent). On a multicore runner the sharded
// dispatcher's responses/s grows with switch count while the serial
// one pins at one core.
type E8Result struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Workers    int       `json:"workers"`
	Window     int       `json:"window"`
	DurationMS int64     `json:"duration_ms"`
	Points     []E8Point `json:"points"`
}

func runE8(p Params) (*Table, any, error) {
	cfg := E8Config{}
	if p.Quick {
		cfg.SwitchCounts = []int{1, 4, 16}
		cfg.Duration = 500 * time.Millisecond
	}
	return E8ControlPlaneScaling(cfg)
}

// E8ControlPlaneScaling sweeps cbench switch counts against the serial
// dispatcher (DispatchWorkers=1, per-message flush — the pre-sharding
// controller) and the sharded one (DPID-sharded workers, coalesced zof
// writes), reporting responses/s and latency quantiles for both.
func E8ControlPlaneScaling(cfg E8Config) (*Table, *E8Result, error) {
	if len(cfg.SwitchCounts) == 0 {
		cfg.SwitchCounts = []int{1, 4, 16, 64}
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = max(4, runtime.GOMAXPROCS(0))
	}
	res := &E8Result{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    cfg.Workers,
		Window:     cfg.Window,
		DurationMS: cfg.Duration.Milliseconds(),
	}
	tbl := newTable("e8", "switches", "serial rps", "sharded rps", "speedup", "serial p50/p99", "sharded p50/p99")
	tbl.Notes = []string{
		fmt.Sprintf("serial = 1 worker + per-message flush; sharded = %d workers + coalesced writes", cfg.Workers),
		fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; speedup is bounded by available cores (≈1.0 on one core)",
			res.GOMAXPROCS, res.NumCPU),
		fmt.Sprintf("window=%d outstanding packet-ins per switch, %v per point per mode", cfg.Window, cfg.Duration),
	}

	serialCfg := controller.Config{
		EventQueue:      1 << 16,
		DispatchWorkers: 1,
		FlushDelay:      -1, // per-message flush: the pre-sharding controller
	}
	shardedCfg := controller.Config{
		EventQueue:      1 << 16,
		DispatchWorkers: cfg.Workers,
		FlushDelay:      0, // flush-on-idle coalescing
	}

	for _, n := range cfg.SwitchCounts {
		load := cbench.Config{Switches: n, Window: cfg.Window, Duration: cfg.Duration}
		ser, err := cbenchRun(serialCfg, apps.NewLearningSwitch(), load)
		if err != nil {
			return nil, nil, fmt.Errorf("E8 serial with %d switches: %w", n, err)
		}
		shd, err := cbenchRun(shardedCfg, apps.NewLearningSwitch(), load)
		if err != nil {
			return nil, nil, fmt.Errorf("E8 sharded with %d switches: %w", n, err)
		}
		pt := E8Point{
			Switches:     n,
			SerialRPS:    ser.PerSecond(),
			ShardedRPS:   shd.PerSecond(),
			SerialP50MS:  ms(ser.Latency.Quantile(0.50)),
			SerialP99MS:  ms(ser.Latency.Quantile(0.99)),
			ShardedP50MS: ms(shd.Latency.Quantile(0.50)),
			ShardedP99MS: ms(shd.Latency.Quantile(0.99)),
		}
		if pt.SerialRPS > 0 {
			pt.Speedup = pt.ShardedRPS / pt.SerialRPS
		}
		res.Points = append(res.Points, pt)
		tbl.AddRow(
			fmt.Sprintf("%d", n),
			f0(pt.SerialRPS),
			f0(pt.ShardedRPS),
			f2(pt.Speedup)+"x",
			ser.Latency.Quantile(0.50).String()+"/"+ser.Latency.Quantile(0.99).String(),
			shd.Latency.Quantile(0.50).String()+"/"+shd.Latency.Quantile(0.99).String(),
		)
	}
	return tbl, res, nil
}
