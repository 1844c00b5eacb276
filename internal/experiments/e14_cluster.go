package experiments

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/zof"
)

// E14Config parameterizes the controller-cluster failover experiment.
type E14Config struct {
	Switches          int           // switches across the cluster (default 4)
	Rules             int           // intent rules per switch (default 8)
	LeaseTTL          time.Duration // mastership lease TTL (default 300ms)
	HeartbeatInterval time.Duration // east-west heartbeat period (default 60ms)
	ProbeInterval     time.Duration // switch-side session probe period (default 20ms)
	ProbeMisses       int           // probe misses before the session evicts (default 2)
}

// E14Failover is one master-loss scenario measured end to end.
type E14Failover struct {
	// TakeoverWallMS is fault onset → every orphaned switch converged
	// on its new master (intent rules present under the new epoch,
	// stale rules flushed).
	TakeoverWallMS float64 `json:"takeover_wall_ms"`
	// DetectMS is the mean switch-side detection latency (first missed
	// echo probe → session eviction) across failed-over sessions. Zero
	// when the fault closed the channel and sessions detected by
	// read error before any probe could miss (crash scenario).
	DetectMS float64 `json:"detect_ms"`
	// ClaimMS is the new master's own claim latency: lease claim →
	// switch activated (role fenced, apps reinstalling).
	ClaimMS   float64 `json:"claim_ms"`
	Takeovers uint64  `json:"takeovers"`
	// Deposals counts stand-downs on the old master after the
	// partition heals (partition scenario only).
	Deposals uint64 `json:"deposals"`
	// StaleFlushed counts rules the epoch-selective reconcile removed
	// at takeover (the dead master's orphans); RulesRetained is the
	// intent that survived — adopted in place, never wiped.
	StaleFlushed  uint64 `json:"stale_flushed"`
	RulesRetained uint64 `json:"rules_retained"`
	Converged     bool   `json:"converged"`
}

// E14Result is the machine-readable output (BENCH_e14.json).
type E14Result struct {
	Switches    int         `json:"switches"`
	Rules       int         `json:"rules"`
	LeaseTTLMS  float64     `json:"lease_ttl_ms"`
	HeartbeatMS float64     `json:"heartbeat_ms"`
	Crash       E14Failover `json:"crash"`
	Partition   E14Failover `json:"partition"`
}

// e14Installer pushes n intent rules on every SwitchUp — the app-level
// state that must survive a master change. Every instance runs the
// same app, so intent is replicated by construction; only the cookie
// epoch differs per instance.
type e14Installer struct{ n int }

func (a e14Installer) Name() string { return "e14-installer" }
func (a e14Installer) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return
	}
	for i := 0; i < a.n; i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc[5] = byte(i + 1)
		sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: m,
			Priority: 100, Cookie: uint64(i + 1), BufferID: zof.NoBuffer})
	}
}
func (a e14Installer) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {}

// e14Logf, when set from a test, receives the cluster runtime's logs
// (takeovers, deposals, reconciles). Nil in benchmark runs.
var e14Logf func(string, ...any)

// e14Member is one cluster instance: a controller in gated-mastership
// mode plus its lease/replication runtime.
type e14Member struct {
	ctl *controller.Controller
	in  *cluster.Instance
}

// e14NewMember starts instance id of the two-instance cluster, running
// the intent installer.
func e14NewMember(id int, cfg E14Config) (*e14Member, error) {
	hooks := &cluster.Hooks{}
	ctl, err := controller.New(controller.Config{
		EpochOffset: uint64(id),
		EpochStride: 2,
		Mastership:  hooks,
	})
	if err != nil {
		return nil, err
	}
	ctl.Use(e14Installer{n: cfg.Rules})
	in, err := cluster.New(cluster.Config{
		ID:                id,
		Controller:        ctl,
		LeaseTTL:          cfg.LeaseTTL,
		HeartbeatInterval: cfg.HeartbeatInterval,
		Logf:              e14Logf,
	})
	if err != nil {
		ctl.Close()
		return nil, err
	}
	hooks.Bind(in)
	return &e14Member{ctl: ctl, in: in}, nil
}

func (m *e14Member) stop() {
	m.in.Close()
	m.ctl.Close()
}

// e14Describe summarizes per-switch table state for failure messages.
func e14Describe(ctl *controller.Controller, dpids []uint64) string {
	var b []byte
	for _, d := range dpids {
		sc, ok := ctl.Switch(d)
		if !ok {
			b = fmt.Appendf(b, "[%d: unregistered]", d)
			continue
		}
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		if err != nil {
			b = fmt.Appendf(b, "[%d: active=%v stats: %v]", d, sc.Active(), err)
			continue
		}
		epochs := map[uint64]int{}
		for _, f := range rep.Flows {
			epochs[controller.CookieEpoch(f.Cookie)]++
		}
		b = fmt.Appendf(b, "[%d: active=%v epoch=%d flows=%d byEpoch=%v]",
			d, sc.Active(), sc.Epoch(), len(rep.Flows), epochs)
	}
	return string(b)
}

// e14Frame builds a table-miss UDP frame from a stable population of
// 64 hosts: after warmup every injection is a pure packet-in dispatch,
// with no host-learning churn feeding the replication stream (e9Frame
// mints a fresh src MAC per frame, which would turn a failover
// measurement into a host-delta broadcast benchmark).
func e14Frame(i int) []byte {
	return e9Frame(i % 64)
}

// e14Orphan installs one rule per switch outside any app's intent on
// the current master: after failover nothing reinstalls it, so it
// survives only if reconciliation fails to flush stale epochs.
func e14Orphan(ctl *controller.Controller, dpids []uint64) error {
	for _, d := range dpids {
		sc, ok := ctl.Switch(d)
		if !ok {
			return fmt.Errorf("switch %d not registered", d)
		}
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc[4], m.EthSrc[5] = 0xEE, byte(d)
		if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: m,
			Priority: 50, Cookie: 0x9900 + d, BufferID: zof.NoBuffer}); err != nil {
			return err
		}
	}
	return nil
}

// e14Scenario runs one master-loss lifecycle: build a two-instance
// cluster, home every switch on instance 0, converge, then take the
// master away — by crash (instance killed outright) or by partition
// (instance alive but unreachable: east-west and southbound
// blackholed, then healed to observe the stand-down).
func e14Scenario(cfg E14Config, partition bool) (E14Failover, error) {
	var out E14Failover

	m0, err := e14NewMember(0, cfg)
	if err != nil {
		return out, err
	}
	defer m0.stop()
	m1, err := e14NewMember(1, cfg)
	if err != nil {
		return out, err
	}
	defer m1.stop()

	// East-west and instance 0's southbound ride netem Channels so one
	// Cut isolates the master.
	ew01, ew10 := netem.NewChannel(m1.in.Serve), netem.NewChannel(m0.in.Serve)
	defer ew01.Close()
	defer ew10.Close()
	m0.in.Join(map[int]func() (net.Conn, error){1: ew01.Dial})
	m1.in.Join(map[int]func() (net.Conn, error){0: ew10.Dial})
	south0, south1 := netem.NewChannel(m0.ctl.Serve), netem.NewChannel(m1.ctl.Serve)
	defer south0.Close()
	part := netem.NewPartition(ew01, ew10, south0)
	dpids := make([]uint64, cfg.Switches)
	switches := make([]*dataplane.Switch, cfg.Switches)
	sessions := make([]*dataplane.Session, cfg.Switches)
	for i := range switches {
		dpids[i] = uint64(i + 1)
		switches[i] = twoPortSwitch(dataplane.Config{DPID: dpids[i]})
		sessions[i] = dataplane.StartSession(switches[i], dataplane.SessionConfig{
			Dial:          []func() (net.Conn, error){south0.Dial, south1.Dial},
			MinBackoff:    10 * time.Millisecond,
			MaxBackoff:    100 * time.Millisecond,
			ProbeInterval: cfg.ProbeInterval,
			ProbeMisses:   cfg.ProbeMisses,
			Seed:          int64(i + 1),
		})
		defer sessions[i].Close()
	}
	if !waitConverged(m0.ctl, dpids, cfg.Rules, 10*time.Second) {
		return out, fmt.Errorf("initial convergence on instance 0 failed")
	}
	if err := e14Orphan(m0.ctl, dpids); err != nil {
		return out, err
	}
	if !waitConverged(m0.ctl, dpids, cfg.Rules+1, 5*time.Second) {
		return out, fmt.Errorf("orphan install did not settle")
	}

	stopTraffic := missTraffic(switches, e14Frame, 500*time.Microsecond)
	defer stopTraffic()

	// Take the master away.
	t0 := time.Now()
	if partition {
		part.Cut()
	} else {
		m0.stop()
	}
	if !waitConverged(m1.ctl, dpids, cfg.Rules, 20*time.Second) {
		return out, fmt.Errorf("takeover convergence on instance 1 failed: %s",
			e14Describe(m1.ctl, dpids))
	}
	out.TakeoverWallMS = ms(time.Since(t0))
	out.Takeovers = m1.in.Takeovers()
	out.ClaimMS = ms(m1.in.LastTakeover())
	var det time.Duration
	for _, s := range sessions {
		det += s.LastDetection()
	}
	out.DetectMS = ms(det / time.Duration(len(sessions)))
	out.StaleFlushed = metric(m1.ctl, "controller.liveness.stale_flows")
	out.RulesRetained = uint64(cfg.Switches * cfg.Rules)

	if partition {
		// Heal: the deposed master learns the higher terms from the
		// first heartbeats through and stands down everywhere.
		part.Heal()
		poll(10*time.Second, func() bool { return m0.in.Deposals() >= uint64(cfg.Switches) })
		out.Deposals = m0.in.Deposals()
	}
	out.Converged = true
	return out, nil
}

func runE14(p Params) (*Table, any, error) {
	cfg := E14Config{}
	if p.Quick {
		cfg.Switches = 2
		cfg.Rules = 4
	}
	return E14ClusterFailover(cfg)
}

// E14ClusterFailover measures the distributed-control contract from
// DESIGN.md "Cluster failover contract": lease-based mastership with
// term fencing, replicated-NIB warm standbys, and epoch-selective
// reconciliation, under both a crashed and a partitioned master.
func E14ClusterFailover(cfg E14Config) (*Table, *E14Result, error) {
	if cfg.Switches <= 0 {
		cfg.Switches = 4
	}
	if cfg.Rules <= 0 {
		cfg.Rules = 8
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 300 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 60 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeMisses <= 0 {
		cfg.ProbeMisses = 2
	}
	res := &E14Result{
		Switches:    cfg.Switches,
		Rules:       cfg.Rules,
		LeaseTTLMS:  ms(cfg.LeaseTTL),
		HeartbeatMS: ms(cfg.HeartbeatInterval),
	}
	var err error
	if res.Crash, err = e14Scenario(cfg, false); err != nil {
		return nil, nil, fmt.Errorf("E14 crash: %w", err)
	}
	if res.Partition, err = e14Scenario(cfg, true); err != nil {
		return nil, nil, fmt.Errorf("E14 partition: %w", err)
	}

	tbl := newTable("e14", "scenario", "takeover", "detect", "claim", "takeovers", "deposals", "flushed", "retained", "ok")
	tbl.Notes = []string{
		fmt.Sprintf("%d switches × %d rules; lease TTL %v, heartbeat %v, session probe %v × %d misses",
			cfg.Switches, cfg.Rules, cfg.LeaseTTL, cfg.HeartbeatInterval, cfg.ProbeInterval, cfg.ProbeMisses),
		"takeover = fault onset → all switches converged on the new master's epoch, under traffic",
		"flushed counts only the dead master's orphan rules — intent is adopted in place, never wiped",
	}
	row := func(name string, f E14Failover) {
		tbl.AddRow(name,
			fmt.Sprintf("%.1fms", f.TakeoverWallMS),
			fmt.Sprintf("%.1fms", f.DetectMS),
			fmt.Sprintf("%.1fms", f.ClaimMS),
			fmt.Sprintf("%d", f.Takeovers),
			fmt.Sprintf("%d", f.Deposals),
			fmt.Sprintf("%d", f.StaleFlushed),
			fmt.Sprintf("%d", f.RulesRetained),
			fmt.Sprintf("%v", f.Converged),
		)
	}
	row("crash", res.Crash)
	row("partition", res.Partition)
	return tbl, res, nil
}
