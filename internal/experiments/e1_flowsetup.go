package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/cbench"
	"repro/internal/controller"
	"repro/internal/zof"
)

// E1Config parameterizes the flow-setup experiment.
type E1Config struct {
	SwitchCounts []int         // e.g. 1,4,16,64
	Window       int           // outstanding packet-ins per switch
	Duration     time.Duration // per configuration
}

func runE1(p Params) (*Table, any, error) {
	cfg := E1Config{}
	if p.Quick {
		cfg.SwitchCounts = []int{1, 4, 16}
		cfg.Duration = 500 * time.Millisecond
	}
	t, err := E1FlowSetup(cfg)
	return t, nil, err
}

// E1FlowSetup measures controller flow-setup capacity cbench-style: N
// emulated switches flood packet-ins at a controller running the L2
// learning app; we record response throughput and latency quantiles.
// Shape: throughput grows with switches until the dispatch shards
// saturate the cores; p95 latency stays well under 10ms (the Maple
// yardstick). The controller is the one zend builds: default Config.
func E1FlowSetup(cfg E1Config) (*Table, error) {
	if len(cfg.SwitchCounts) == 0 {
		cfg.SwitchCounts = []int{1, 4, 16, 64}
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	t := newTable("e1", "switches", "window", "responses/s", "p50", "p95", "p99")
	t.Notes = []string{
		fmt.Sprintf("window=%d outstanding packet-ins per switch, %v per point",
			cfg.Window, cfg.Duration),
		"expected shape: throughput climbs until the dispatch shards saturate the cores; latency grows ~linearly with switches past saturation (queueing), sub-ms at low fan-in",
		"controller at its defaults (DPID-sharded dispatch, coalesced writes) — the one zend builds",
	}
	for _, n := range cfg.SwitchCounts {
		res, err := cbenchRun(apps.NewLearningSwitch(),
			cbench.Config{Switches: n, Window: cfg.Window, Duration: cfg.Duration})
		if err != nil {
			return nil, fmt.Errorf("E1 with %d switches: %w", n, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", cfg.Window),
			f0(res.PerSecond()),
			res.Latency.Quantile(0.50).String(),
			res.Latency.Quantile(0.95).String(),
			res.Latency.Quantile(0.99).String(),
		)
	}
	return t, nil
}

func runE1a(p Params) (*Table, any, error) {
	var d time.Duration
	if p.Quick {
		d = 500 * time.Millisecond
	}
	t, err := E1aProactiveVsReactive(d)
	return t, nil, err
}

// E1aProactiveVsReactive is the ablation: the same load answered by a
// null app that installs a single proactive wildcard rule (so every
// packet-in is answered with a drop flow-mod without any learning
// state), isolating the framework's dispatch cost from app logic.
func E1aProactiveVsReactive(duration time.Duration) (*Table, error) {
	if duration <= 0 {
		duration = 2 * time.Second
	}
	t := newTable("e1a", "app", "responses/s", "p95")
	for _, c := range []struct {
		mode string
		app  controller.App
	}{{"learning", apps.NewLearningSwitch()}, {"null", nullResponder{}}} {
		res, err := cbenchRun(c.app,
			cbench.Config{Switches: 16, Window: 8, Duration: duration})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.mode, f0(res.PerSecond()), res.Latency.Quantile(0.95).String())
	}
	return t, nil
}

// nullResponder answers every packet-in with a minimal drop flow-mod
// referencing the buffered packet — zero app logic beyond the reply.
type nullResponder struct{}

func (nullResponder) Name() string { return "null" }

func (nullResponder) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return true
	}
	_ = sc.InstallFlow(&zof.FlowMod{
		Command:  zof.FlowAdd,
		Match:    zof.MatchAll(),
		Priority: 1,
		BufferID: ev.Msg.BufferID,
	})
	return true
}
