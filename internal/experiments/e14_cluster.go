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

// The cluster's mastership lease and east-west heartbeat, and the
// switch sessions' liveness probe, in every E14 run.
const (
	e14LeaseTTL    = 300 * time.Millisecond
	e14Heartbeat   = 60 * time.Millisecond
	e14Probe       = 20 * time.Millisecond
	e14ProbeMisses = 2
)

// e14NewMember starts instance id of the two-instance cluster, running
// the intent installer with rules rules per switch.
func e14NewMember(id, rules int) (*e14Member, error) {
	hooks := &cluster.Hooks{}
	ctl, err := controller.New(controller.Config{
		EpochOffset: uint64(id),
		EpochStride: 2,
		Mastership:  hooks,
	})
	if err != nil {
		return nil, err
	}
	ctl.Use(e14Installer{n: rules})
	in, err := cluster.New(cluster.Config{
		ID:                id,
		Controller:        ctl,
		LeaseTTL:          e14LeaseTTL,
		HeartbeatInterval: e14Heartbeat,
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
// cluster, wait until one instance masters every switch, converge,
// then take that master away — by crash (instance killed outright) or
// by partition (instance alive but unreachable: east-west and
// southbound blackholed, then healed to observe the stand-down).
// Every switch dials instance 0 first, but a session that flaps under
// load re-homes onto instance 1 before the fault, so either instance
// may be the master; the counters are read as deltas across the fault.
func e14Scenario(switchCount, rules int, partition bool) (E14Failover, error) {
	var out E14Failover

	m0, err := e14NewMember(0, rules)
	if err != nil {
		return out, err
	}
	defer m0.stop()
	m1, err := e14NewMember(1, rules)
	if err != nil {
		return out, err
	}
	defer m1.stop()

	// East-west and each instance's southbound ride netem Channels so
	// one Cut isolates the master.
	ew01, ew10 := netem.NewChannel(m1.in.Serve), netem.NewChannel(m0.in.Serve)
	defer ew01.Close()
	defer ew10.Close()
	m0.in.Join(map[int]func() (net.Conn, error){1: ew01.Dial})
	m1.in.Join(map[int]func() (net.Conn, error){0: ew10.Dial})
	south := []*netem.Channel{netem.NewChannel(m0.ctl.Serve), netem.NewChannel(m1.ctl.Serve)}
	defer south[0].Close()
	defer south[1].Close()
	dpids := make([]uint64, switchCount)
	switches := make([]*dataplane.Switch, switchCount)
	sessions := make([]*dataplane.Session, switchCount)
	for i := range switches {
		dpids[i] = uint64(i + 1)
		switches[i] = twoPortSwitch(dataplane.Config{DPID: dpids[i]})
		sessions[i] = dataplane.StartSession(switches[i], dataplane.SessionConfig{
			Dial:          []func() (net.Conn, error){south[0].Dial, south[1].Dial},
			MinBackoff:    10 * time.Millisecond,
			MaxBackoff:    100 * time.Millisecond,
			ProbeInterval: e14Probe,
			ProbeMisses:   e14ProbeMisses,
			Seed:          int64(i + 1),
		})
		defer sessions[i].Close()
	}

	// Formation ends when one instance masters every switch and the
	// other holds that master's leases.
	members, held := [2]*e14Member{m0, m1}, [2][]uint64{}
	if !poll(10*time.Second, func() bool {
		for i, m := range members {
			held[i] = held[i][:0]
			for _, d := range dpids {
				if l, ok := members[1-i].in.Lease(d); m.in.IsMaster(d) && ok && l.Holder == i {
					held[i] = append(held[i], d)
				}
			}
		}
		return len(held[0]) == switchCount || len(held[1]) == switchCount
	}) {
		return out, fmt.Errorf("formation split: instance 0 holds %v, instance 1 holds %v", held[0], held[1])
	}
	master, standby := m0, m1
	if len(held[1]) == switchCount {
		master, standby = m1, m0
	}
	if !waitConverged(master.ctl, dpids, rules, 10*time.Second) {
		return out, fmt.Errorf("initial convergence on instance %d failed", master.in.ID())
	}
	if err := e14Orphan(master.ctl, dpids); err != nil {
		return out, err
	}
	if !waitConverged(master.ctl, dpids, rules+1, 5*time.Second) {
		return out, fmt.Errorf("orphan install did not settle")
	}

	stopTraffic := missTraffic(switches, e14Frame, 500*time.Microsecond)
	defer stopTraffic()

	// Take the master away.
	takeovers, flushed, deposals := standby.in.Takeovers(),
		metric(standby.ctl, "controller.liveness.stale_flows"), master.in.Deposals()
	part := netem.NewPartition(ew01, ew10, south[master.in.ID()])
	t0 := time.Now()
	if partition {
		part.Cut()
	} else {
		master.stop()
	}
	if !waitConverged(standby.ctl, dpids, rules, 20*time.Second) {
		return out, fmt.Errorf("takeover convergence on instance %d failed: %s",
			standby.in.ID(), e14Describe(standby.ctl, dpids))
	}
	out.TakeoverWallMS = ms(time.Since(t0))
	out.Takeovers = standby.in.Takeovers() - takeovers
	out.ClaimMS = ms(standby.in.LastTakeover())
	var det time.Duration
	for _, s := range sessions {
		det += s.LastDetection()
	}
	out.DetectMS = ms(det / time.Duration(len(sessions)))
	out.StaleFlushed = metric(standby.ctl, "controller.liveness.stale_flows") - flushed
	out.RulesRetained = uint64(switchCount * rules)

	if partition {
		// Heal: the deposed master learns the higher terms from the
		// first heartbeats through and stands down everywhere.
		part.Heal()
		poll(10*time.Second, func() bool { return master.in.Deposals()-deposals >= uint64(switchCount) })
		out.Deposals = master.in.Deposals() - deposals
	}
	out.Converged = true
	return out, nil
}

// E14ClusterFailover measures the distributed-control contract from
// DESIGN.md "Cluster failover contract": lease-based mastership with
// term fencing, replicated-NIB warm standbys, and epoch-selective
// reconciliation, under both a crashed and a partitioned master.
func E14ClusterFailover(p Params) (*Table, *E14Result, error) {
	switches, rules := 4, 8
	if p.Quick {
		switches, rules = 2, 4
	}
	res := &E14Result{
		Switches:    switches,
		Rules:       rules,
		LeaseTTLMS:  ms(e14LeaseTTL),
		HeartbeatMS: ms(e14Heartbeat),
	}
	var err error
	if res.Crash, err = e14Scenario(switches, rules, false); err != nil {
		return nil, nil, fmt.Errorf("E14 crash: %w", err)
	}
	if res.Partition, err = e14Scenario(switches, rules, true); err != nil {
		return nil, nil, fmt.Errorf("E14 partition: %w", err)
	}

	tbl := newTable("e14", "scenario", "takeover", "detect", "claim", "takeovers", "deposals", "flushed", "retained", "ok")
	tbl.Notes = []string{
		fmt.Sprintf("%d switches × %d rules; lease TTL %v, heartbeat %v, session probe %v × %d misses",
			switches, rules, e14LeaseTTL, e14Heartbeat, e14Probe, e14ProbeMisses),
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
