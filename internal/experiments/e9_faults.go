package experiments

import (
	"fmt"
	"net"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E9Point is one (miss budget, backoff) configuration taken through the
// full failure lifecycle: blackhole → eviction, heal → reconnect +
// flow-state convergence, crash-restart → convergence from an empty
// table.
type E9Point struct {
	MissBudget int     `json:"miss_budget"`
	BackoffMS  float64 `json:"backoff_ms"`
	// DetectMS is the controller's measured detection latency (first
	// missed probe send → eviction); DetectBoundMS is the contract:
	// ProbeInterval × MissBudget.
	DetectMS      float64 `json:"detect_ms"`
	DetectBoundMS float64 `json:"detect_bound_ms"`
	// DetectWallMS is blackhole onset → SwitchDown observed, which adds
	// the wait for the next probe tick to DetectMS.
	DetectWallMS float64 `json:"detect_wall_ms"`
	// ReconnectMS is partition heal → Reconnect SwitchUp observed.
	ReconnectMS float64 `json:"reconnect_ms"`
	// FlapConvergeMS is heal → flow table converged (intended rules
	// present under the live epoch, stale rules flushed) for a
	// control-channel flap that left the table populated.
	FlapConvergeMS float64 `json:"flap_converge_ms"`
	// CrashConvergeMS is restart → converged for a crash-restart that
	// came back with an empty table, under active traffic.
	CrashConvergeMS float64 `json:"crash_converge_ms"`
	// StaleFlushed counts flows reconciliation removed (rules retired
	// while the switch was partitioned).
	StaleFlushed uint64 `json:"stale_flushed"`
	Converged    bool   `json:"converged"`
}

// E9Result is the machine-readable output (BENCH_e9.json).
type E9Result struct {
	ProbeIntervalMS float64   `json:"probe_interval_ms"`
	Rules           int       `json:"rules"`
	Points          []E9Point `json:"points"`
}

// e9Recorder surfaces switch lifecycle events to the driving goroutine.
type e9Recorder struct {
	ups   chan controller.SwitchUp
	downs chan controller.SwitchDown
}

func newE9Recorder() *e9Recorder {
	return &e9Recorder{
		ups:   make(chan controller.SwitchUp, 64),
		downs: make(chan controller.SwitchDown, 64),
	}
}

func (r *e9Recorder) Name() string { return "e9-recorder" }

func (r *e9Recorder) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	select {
	case r.ups <- ev:
	default:
	}
}

func (r *e9Recorder) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	select {
	case r.downs <- ev:
	default:
	}
}

func (r *e9Recorder) drain() {
	for {
		select {
		case <-r.ups:
		case <-r.downs:
		default:
			return
		}
	}
}

// e9Frame builds a UDP frame whose destination matches none of the ACL
// rules, so every injection is a table miss → packet-in while the
// channel is up (the "active traffic" the recovery runs under). Every i
// is a new source station.
func e9Frame(i int) []byte {
	return udpFrame(64, packet.IPv4Addr{10, 9, byte(i >> 8), byte(i)},
		packet.IPv4Addr{10, 10, 0, 1}, uint16(7000+i%512))
}

// waitFor receives one event from ch, or gives up after timeout.
func waitFor[T any](ch <-chan T, timeout time.Duration) (ev T, ok bool) {
	select {
	case ev = <-ch:
		return ev, true
	case <-time.After(timeout):
		return ev, false
	}
}

// e9Probe is the controller's liveness probe interval.
const e9Probe = 25 * time.Millisecond

// e9Point runs one configuration through the full lifecycle.
func e9Point(misses int, backoff time.Duration, rules int) (E9Point, error) {
	pt := E9Point{
		MissBudget:    misses,
		BackoffMS:     ms(backoff),
		DetectBoundMS: ms(e9Probe * time.Duration(misses)),
	}
	// ProbeTimeout strictly below the interval makes the detection bound
	// hold with margin: the fatal streak's last probe times out before
	// the tick that would start probe budget+1, so eviction lands at
	// interval×(budget-1) + timeout < interval×budget.
	ctl, err := controller.New(controller.Config{
		ProbeInterval: e9Probe,
		ProbeTimeout:  e9Probe * 4 / 5,
		ProbeMisses:   misses,
	})
	if err != nil {
		return pt, err
	}
	defer ctl.Close()
	acl := apps.NewACL()
	rec := newE9Recorder()
	ctl.Use(acl) // before the recorder: an observed SwitchUp implies ACL reinstalled
	ctl.Use(rec)

	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()

	sw := twoPortSwitch(dataplane.Config{DPID: 1})
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){channel.Dial},
		MinBackoff: backoff,
		Seed:       1,
	})
	defer sess.Close()

	if _, ok := waitFor(rec.ups, 5*time.Second); !ok {
		return pt, fmt.Errorf("initial SwitchUp not observed")
	}
	ids := make([]uint64, 0, rules)
	for i := 0; i < rules; i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthDst
		m.EthDst = packet.MACFromUint64(0x0A0000000000 | uint64(i))
		ids = append(ids, acl.Deny(ctl, m))
	}
	if !waitConverged(ctl, []uint64{1}, rules, 5*time.Second) {
		return pt, fmt.Errorf("initial rule install did not converge")
	}

	// Active traffic for the whole lifecycle: misses → packet-ins while
	// the channel is up, plain forwarding-path load while it is not.
	stopTraffic := missTraffic([]*dataplane.Switch{sw}, e9Frame, 500*time.Microsecond)
	defer func() { stopTraffic() }()

	// Phase 1 — detection: blackhole the control channel (bytes silently
	// discarded, nothing closed: a half-open session) and wait for the
	// liveness prober to evict.
	rec.drain()
	t0 := time.Now()
	channel.Blackhole(true)
	if _, ok := waitFor(rec.downs, e9Probe*time.Duration(misses+4)+2*time.Second); !ok {
		return pt, fmt.Errorf("liveness eviction not observed")
	}
	pt.DetectWallMS = ms(time.Since(t0))
	pt.DetectMS = ms(time.Duration(metric(ctl, "controller.liveness.last_detection_ns")))

	// While partitioned, retire a quarter of the rules. The switch still
	// holds them; only post-reconnect reconciliation can flush them.
	retired := len(ids) / 4
	for _, id := range ids[:retired] {
		acl.Allow(ctl, id)
	}
	want := rules - retired

	// Phase 2 — heal: stop discarding and sever the leaked half-open
	// connection so the session manager redials through the channel.
	rec.drain()
	channel.Blackhole(false)
	t1 := time.Now()
	channel.DropConnections()
	up, ok := waitFor(rec.ups, 10*time.Second)
	if !ok {
		return pt, fmt.Errorf("reconnect SwitchUp not observed")
	}
	if !up.Reconnect {
		return pt, fmt.Errorf("reconnect SwitchUp lacked Reconnect flag")
	}
	pt.ReconnectMS = ms(time.Since(t1))
	if !waitConverged(ctl, []uint64{1}, want, 10*time.Second) {
		return pt, fmt.Errorf("flow state did not converge after flap")
	}
	pt.FlapConvergeMS = ms(time.Since(t1))
	pt.StaleFlushed = metric(ctl, "controller.liveness.stale_flows")

	// Phase 3 — crash-restart: kill the session and the switch, bring up
	// a new datapath with the same DPID and an empty table, and measure
	// convergence from nothing, still under traffic.
	rec.drain()
	sess.Close()
	if _, ok := waitFor(rec.downs, 10*time.Second); !ok {
		return pt, fmt.Errorf("SwitchDown after crash not observed")
	}
	stopTraffic()
	sw = twoPortSwitch(dataplane.Config{DPID: 1})
	stopTraffic = missTraffic([]*dataplane.Switch{sw}, e9Frame, 500*time.Microsecond)
	t2 := time.Now()
	sess2 := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){channel.Dial},
		MinBackoff: backoff,
		Seed:       2,
	})
	defer sess2.Close()
	if _, ok := waitFor(rec.ups, 10*time.Second); !ok {
		return pt, fmt.Errorf("post-restart SwitchUp not observed")
	}
	if !waitConverged(ctl, []uint64{1}, want, 10*time.Second) {
		return pt, fmt.Errorf("flow state did not converge after restart")
	}
	pt.CrashConvergeMS = ms(time.Since(t2))
	pt.Converged = true
	return pt, nil
}

// E9FaultRecovery sweeps liveness miss budgets and reconnect backoffs
// through the blackhole → heal → crash-restart lifecycle, reporting
// detection latency against its interval × budget bound, reconnect
// time, and flow-state convergence time (DESIGN.md "Failure model and
// reconnect contract").
func E9FaultRecovery(p Params) (*Table, *E9Result, error) {
	budgets, rules := []int{1, 2, 3}, 16
	backoffs := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond}
	if p.Quick {
		budgets, backoffs, rules = []int{2}, backoffs[:1], 8
	}
	res := &E9Result{ProbeIntervalMS: ms(e9Probe), Rules: rules}
	tbl := newTable("e9", "misses", "backoff", "detect (bound)", "wall", "reconnect", "flap conv", "crash conv", "stale", "ok")
	tbl.Notes = []string{
		fmt.Sprintf("probe interval %v; %d ACL rules as reconcilable state; 1/4 retired mid-partition", e9Probe, rules),
		"detect = first missed probe → eviction, bound = interval × misses; wall adds the wait for the next probe tick",
		"flap keeps the flow table populated (stale epochs flushed); crash restarts with an empty table under traffic",
	}
	for _, mb := range budgets {
		for _, bo := range backoffs {
			pt, err := e9Point(mb, bo, rules)
			if err != nil {
				return nil, nil, fmt.Errorf("E9 misses=%d backoff=%v: %w", mb, bo, err)
			}
			res.Points = append(res.Points, pt)
			tbl.AddRow(
				fmt.Sprintf("%d", pt.MissBudget),
				fmt.Sprintf("%.0fms", pt.BackoffMS),
				fmt.Sprintf("%.1fms (%.0fms)", pt.DetectMS, pt.DetectBoundMS),
				fmt.Sprintf("%.1fms", pt.DetectWallMS),
				fmt.Sprintf("%.1fms", pt.ReconnectMS),
				fmt.Sprintf("%.1fms", pt.FlapConvergeMS),
				fmt.Sprintf("%.1fms", pt.CrashConvergeMS),
				fmt.Sprintf("%d", pt.StaleFlushed),
				fmt.Sprintf("%v", pt.Converged),
			)
		}
	}
	return tbl, res, nil
}
