package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cbench"
	"repro/internal/controller"
	"repro/internal/obs"
)

// E11Point is one tracing mode under the same cbench load.
type E11Point struct {
	Mode        string  `json:"mode"`
	RPS         float64 `json:"rps"`
	OverheadPct float64 `json:"overhead_pct"` // throughput lost vs mode=off
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	Recorded    int     `json:"recorded_events"`
	AppP95US    float64 `json:"app_p95_us"` // traced app-handler latency (0 when off)
}

// E11Result is the machine-readable output (BENCH_e11.json). The claim
// under test: always-on observability is affordable. Off-mode tracing
// costs one atomic load per event; sampled mode stamps 1/N events and
// should stay within a few percent of baseline; even full tracing
// (every event timestamped twice, per-app spans recorded into the
// ring) must cost well under 15% of dispatch throughput.
type E11Result struct {
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Switches    int        `json:"switches"`
	Window      int        `json:"window"`
	DurationMS  int64      `json:"duration_ms"`
	SampleEvery int        `json:"sample_every"`
	Points      []E11Point `json:"points"`
}

// e11TraceBuffer is the flight-recorder ring every E11 mode runs with.
const e11TraceBuffer = 1024

// e11Run drives load against a fresh controller with the given tracing
// mode, reporting throughput plus what the recorder and the per-app
// latency histogram captured.
func e11Run(load cbench.Config, mode obs.TraceMode) (cbench.Result, int, float64, error) {
	ctl, err := cbenchTarget(controller.Config{
		EventQueue:  1 << 16,
		TraceBuffer: e11TraceBuffer,
	}, apps.NewLearningSwitch())
	if err != nil {
		return cbench.Result{}, 0, 0, err
	}
	defer ctl.Close()
	ctl.Tracing().SetMode(mode)
	load.Addr = ctl.Addr()
	res, err := cbench.Run(load)
	if err != nil {
		return cbench.Result{}, 0, 0, err
	}
	recorded := int(ctl.Tracing().Recorded())
	appP95 := 0.0
	if h := ctl.Metrics().Histogram("controller.app.l2-learning.latency"); h != nil {
		appP95 = float64(h.Quantile(0.95).Nanoseconds()) / 1e3
	}
	return res, recorded, appP95, nil
}

// E11ObservabilityOverhead measures the dispatch-throughput cost of
// control-loop tracing: the same cbench load is answered with the
// flight recorder off, sampled (1/N), and full. Baseline is off; the
// other modes report throughput lost against it.
func E11ObservabilityOverhead(p Params) (*Table, *E11Result, error) {
	load := cbench.Config{Switches: 16, Window: 8, Duration: 2 * time.Second}
	if p.Quick {
		load.Switches, load.Duration = 4, 500*time.Millisecond
	}
	res := &E11Result{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Switches:    load.Switches,
		Window:      load.Window,
		DurationMS:  load.Duration.Milliseconds(),
		SampleEvery: obs.DefaultSampleEvery,
	}
	tbl := newTable("e11", "mode", "rps", "overhead", "p50/p99", "recorded", "app p95")
	tbl.Notes = []string{
		fmt.Sprintf("sampled = every %dth event stamped; full = every event; ring capacity %d",
			obs.DefaultSampleEvery, e11TraceBuffer),
		fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; %d switches, window %d, %v per mode",
			res.GOMAXPROCS, res.NumCPU, load.Switches, load.Window, load.Duration),
		"overhead is throughput lost vs mode=off; targets: sampled <3%, full <15%",
	}

	var baseline float64
	for _, mode := range []obs.TraceMode{obs.TraceOff, obs.TraceSampled, obs.TraceFull} {
		r, recorded, appP95, err := e11Run(load, mode)
		if err != nil {
			return nil, nil, fmt.Errorf("E11 mode %s: %w", mode, err)
		}
		pt := E11Point{
			Mode:     mode.String(),
			RPS:      r.PerSecond(),
			P50MS:    ms(r.Latency.Quantile(0.50)),
			P99MS:    ms(r.Latency.Quantile(0.99)),
			Recorded: recorded,
			AppP95US: appP95,
		}
		if mode == obs.TraceOff {
			baseline = pt.RPS
		} else if baseline > 0 {
			pt.OverheadPct = (baseline - pt.RPS) / baseline * 100
		}
		res.Points = append(res.Points, pt)
		tbl.AddRow(
			pt.Mode,
			f0(pt.RPS),
			f1(pt.OverheadPct)+"%",
			r.Latency.Quantile(0.50).String()+"/"+r.Latency.Quantile(0.99).String(),
			fmt.Sprintf("%d", pt.Recorded),
			f1(pt.AppP95US)+"µs",
		)
	}
	return tbl, res, nil
}
