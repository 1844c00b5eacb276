package cluster

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// member is one cluster instance under test: a controller with gated
// mastership plus its cluster Instance, wired with fast timers.
type member struct {
	ctl   *controller.Controller
	in    *Instance
	hooks *Hooks
}

func startMember(t *testing.T, id, size int, apps ...controller.App) *member {
	t.Helper()
	hooks := &Hooks{}
	ctl, err := controller.New(controller.Config{
		EpochOffset: uint64(id),
		EpochStride: uint64(size),
		Mastership:  hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Use(apps...)
	in, err := New(Config{
		ID:                id,
		Controller:        ctl,
		LeaseTTL:          240 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		ctl.Close()
		t.Fatal(err)
	}
	hooks.Bind(in)
	m := &member{ctl: ctl, in: in, hooks: hooks}
	t.Cleanup(func() { m.stop() })
	return m
}

func (m *member) stop() {
	m.in.Close()
	m.ctl.Close()
}

// form gives every member a dialer to every member's Serve.
func form(members ...*member) {
	peers := make(map[int]func() (net.Conn, error), len(members))
	for _, m := range members {
		peers[m.in.ID()] = netem.NewChannel(m.in.Serve).Dial
	}
	for _, m := range members {
		m.in.Join(peers)
	}
}

// attach runs sw's session over an in-process stream served by ctl.
func attach(sw *dataplane.Switch, ctl *controller.Controller) (*dataplane.Datapath, error) {
	a, b := netem.StreamPair()
	ctl.Serve(b)
	return dataplane.Attach(sw, a)
}

// installer is a proactive app: n rules pushed on every SwitchUp.
type installer struct{ n int }

func (a installer) Name() string { return "installer" }
func (a installer) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return
	}
	for i := 0; i < a.n; i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc[5] = byte(i + 1)
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: m,
			Priority: 100, Cookie: uint64(i + 1), BufferID: zof.NoBuffer})
	}
}
func (a installer) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {}

// upRecorder counts lifecycle events (thread-safe).
type upRecorder struct {
	mu    sync.Mutex
	ups   []controller.SwitchUp
	downs int
}

func (r *upRecorder) Name() string { return "up-recorder" }
func (r *upRecorder) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	r.mu.Lock()
	r.ups = append(r.ups, ev)
	r.mu.Unlock()
}
func (r *upRecorder) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	r.mu.Lock()
	r.downs++
	r.mu.Unlock()
}
func (r *upRecorder) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ups), r.downs
}

// nibHas reports whether ctl's NIB lists dpid.
func nibHas(ctl *controller.Controller, dpid uint64) bool {
	return slices.ContainsFunc(ctl.NIB().Switches(), func(f zof.FeaturesReply) bool { return f.DPID == dpid })
}

// converged reports whether the switch registered at ctl holds exactly
// want flows, all stamped with the live session's epoch.
func converged(ctl *controller.Controller, dpid uint64, want int) bool {
	sc, ok := ctl.Switch(dpid)
	if !ok {
		return false
	}
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, time.Second)
	if err != nil || len(rep.Flows) != want {
		return false
	}
	for _, f := range rep.Flows {
		if controller.CookieEpoch(f.Cookie) != sc.Epoch() {
			return false
		}
	}
	return true
}

// TestClusterMastershipFormation: a two-instance cluster, a switch
// attached to both. Exactly one instance activates it (the lease
// holder); the other stays standby — connection registered but
// inactive, no SwitchUp delivered to its apps.
func TestClusterMastershipFormation(t *testing.T) {
	rec0, rec1 := &upRecorder{}, &upRecorder{}
	m0 := startMember(t, 0, 2, rec0)
	m1 := startMember(t, 1, 2, rec1)
	form(m0, m1)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 100)
	dp0, err := attach(sw, m0.ctl)
	if err != nil {
		t.Fatal(err)
	}
	defer dp0.Close()
	waitUntil(t, 3*time.Second, func() bool { return m0.in.IsMaster(1) })

	dp1, err := attach(sw, m1.ctl)
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()

	// The standby learns the lease and respects it.
	waitUntil(t, 2*time.Second, func() bool {
		l, ok := m1.in.Lease(1)
		return ok && l.Holder == 0 && l.Term >= 1
	})
	// Give the standby's sweep several chances to (wrongly) claim.
	time.Sleep(300 * time.Millisecond)
	if m1.in.IsMaster(1) {
		t.Fatal("standby claimed a held lease")
	}
	if sc, ok := m1.ctl.Switch(1); !ok || sc.Active() {
		t.Fatalf("standby connection should be registered and inactive (ok=%v)", ok)
	}
	if u, _ := rec1.counts(); u != 0 {
		t.Errorf("standby apps saw %d SwitchUp events, want 0", u)
	}
	if u, _ := rec0.counts(); u != 1 {
		t.Errorf("master apps saw %d SwitchUp events, want 1", u)
	}
	// The switch's role coordinator agrees: the master's term is the
	// fencing generation.
	if gen, set := sw.MasterGeneration(); !set || gen < 1 {
		t.Errorf("switch generation = %d (set=%v), want >= 1", gen, set)
	}
}

// TestClusterNIBReplication: the master narrates its switch into the
// delta log; the standby's NIB warms up without any switch connection
// of its own, and the DPID is pre-marked seen for takeover. A standby
// that does hold a session to the switch keeps its entry whole through
// the master's switch-down, and can still activate it.
func TestClusterNIBReplication(t *testing.T) {
	m0 := startMember(t, 0, 2)
	m1 := startMember(t, 1, 2)
	form(m0, m1)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 9})
	sw.AddPort(1, "p1", 100)
	sw.AddPort(2, "p2", 100)
	dp, err := attach(sw, m0.ctl)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	waitUntil(t, 3*time.Second, func() bool { return m0.in.IsMaster(9) })

	// Replication delivers the switch and its ports to the standby.
	waitUntil(t, 3*time.Second, func() bool {
		return nibHas(m1.ctl, 9) && len(m1.ctl.NIB().Ports(9)) == 2
	})
	if m1.in.DeltasApplied() == 0 {
		t.Error("standby applied no deltas")
	}
	// Version vectors converge.
	waitUntil(t, 2*time.Second, func() bool {
		vv0, vv1 := m0.in.VersionVector(), m1.in.VersionVector()
		return vv1[0] == vv0[0] && vv0[0] > 0
	})

	// The standby opens its own, inactive session to the switch, then
	// applies the master's switch-down: that delta says the master lost
	// its session, not that this one is gone.
	dp1, err := attach(sw, m1.ctl)
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { _, ok := m1.ctl.Switch(9); return ok })
	sc1, _ := m1.ctl.Switch(9)
	if sc1.Active() {
		t.Fatal("standby activated a switch whose lease instance 0 holds")
	}
	m1.in.apply(0, Delta{Kind: DeltaSwitchDown, DPID: 9})
	if sc, ok := m1.ctl.Switch(9); !ok || sc != sc1 {
		t.Fatalf("replicated switch-down dropped the standby's session (ok=%v)", ok)
	}
	if !nibHas(m1.ctl, 9) || len(m1.ctl.NIB().Ports(9)) != 2 || !m1.ctl.NIB().Graph().HasNode(9) {
		t.Fatalf("replicated switch-down emptied the standby's entry: listed=%v ports=%d",
			nibHas(m1.ctl, 9), len(m1.ctl.NIB().Ports(9)))
	}
	if err := m1.ctl.ActivateSwitch(9); err != nil || !sc1.Active() {
		t.Fatalf("activating the kept session: err=%v active=%v", err, sc1.Active())
	}
}

// TestClusterFailover is the headline path: a switch homed on instance
// 0 with flows installed; instance 0 dies; the switch's session fails
// over to instance 1, which claims the lease at a higher term,
// activates (apps reinstall), and reconciliation flushes exactly the
// dead master's stale-epoch rules — the table converges to the new
// master's epoch without ever being wiped.
func TestClusterFailover(t *testing.T) {
	m0 := startMember(t, 0, 2, installer{n: 3})
	m1 := startMember(t, 1, 2, installer{n: 3})
	form(m0, m1)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 100)
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){netem.NewChannel(m0.ctl.Serve).Dial, netem.NewChannel(m1.ctl.Serve).Dial},
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
	})
	defer sess.Close()

	waitUntil(t, 3*time.Second, func() bool { return m0.in.IsMaster(1) })
	waitUntil(t, 3*time.Second, func() bool { return converged(m0.ctl, 1, 3) })
	sc0, _ := m0.ctl.Switch(1)
	epoch0 := sc0.Epoch()
	if epoch0%2 != 1 {
		t.Fatalf("instance 0 minted epoch %d, want ≡1 (mod 2)", epoch0)
	}
	// An orphan rule outside the apps' intent: it carries instance 0's
	// epoch and nothing will reinstall it, so only the selective flush
	// can remove it after takeover.
	orphan := zof.MatchAll()
	orphan.Wildcards &^= zof.WEthSrc
	orphan.EthSrc[5] = 0xEE
	if err := sc0.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: orphan,
		Priority: 50, Cookie: 0x99, BufferID: zof.NoBuffer}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return sw.FlowCount() == 4 })

	// Kill the master. The switch's session dies with it and fails
	// over to instance 1; the lease expires by TTL (no heartbeats).
	m0.stop()
	waitUntil(t, 5*time.Second, func() bool { return m1.in.IsMaster(1) })
	waitUntil(t, 5*time.Second, func() bool { return converged(m1.ctl, 1, 3) })

	sc1, _ := m1.ctl.Switch(1)
	if got := sc1.Epoch(); got%2 != 0 {
		t.Errorf("instance 1 minted epoch %d, want ≡0 (mod 2)", got)
	}
	l, _ := m1.in.Lease(1)
	if l.Holder != 1 || l.Term < 2 {
		t.Errorf("post-failover lease = %+v, want holder 1, term >= 2", l)
	}
	if m1.in.Takeovers() != 1 {
		t.Errorf("takeovers = %d, want 1", m1.in.Takeovers())
	}
	if sw.FlowCount() != 3 {
		t.Errorf("flow count after failover = %d, want 3 (stale flushed, intent retained)", sw.FlowCount())
	}
	// The flush was epoch-selective: the intent rules were adopted in
	// place (FlowAdd overwrote match-identical entries with the new
	// epoch), and only the orphan — stale epoch, no reinstaller — was
	// deleted. A full wipe would also count the three intent rules.
	if got, _ := m1.ctl.Metrics().Value("controller.liveness.stale_flows"); got != 1 {
		t.Errorf("stale flows flushed = %d, want 1 (the orphan only)", got)
	}
	// And the new master's anti-entropy finds nothing left to repair.
	rep, err := m1.ctl.AuditSwitch(sc1)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Repairs() != 0 {
		t.Errorf("audit repairs after convergence = %d, want 0 (%+v)", rep.Repairs(), rep)
	}
}

// TestClusterReleaseOnSwitchGone: when the master's switch connection
// dies but the instance survives, it releases the lease so a peer the
// switch re-homes onto can claim without waiting out the TTL.
func TestClusterReleaseOnSwitchGone(t *testing.T) {
	m0 := startMember(t, 0, 2)
	m1 := startMember(t, 1, 2)
	form(m0, m1)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 4})
	dp, err := attach(sw, m0.ctl)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool { return m0.in.IsMaster(4) })
	l0, _ := m0.in.Lease(4)

	dp.Close()
	waitUntil(t, 2*time.Second, func() bool {
		l, ok := m0.in.Lease(4)
		return ok && l.Holder == -1
	})
	// The release propagates; instance 1 sees the lease as free.
	waitUntil(t, 2*time.Second, func() bool {
		l, ok := m1.in.Lease(4)
		return ok && (l.Holder == -1 || !l.Expires.After(time.Now()))
	})
	// The switch re-homes onto instance 1: an immediate claim at a
	// higher term, no TTL wait.
	dp2, err := attach(sw, m1.ctl)
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, 2*time.Second, func() bool { return m1.in.IsMaster(4) })
	l1, _ := m1.in.Lease(4)
	if l1.Term <= l0.Term {
		t.Errorf("re-claimed term %d not past released term %d", l1.Term, l0.Term)
	}
}

// TestInstanceServeAfterClose pins Serve's teardown contract, the same
// as Controller.Serve's: a peer stream handed over after Close is
// closed, and no session starts (wg is never added to after Close has
// waited on it).
func TestInstanceServeAfterClose(t *testing.T) {
	m := startMember(t, 0, 1)
	m.stop()
	peer, side := netem.StreamPair()
	defer peer.Close()
	m.in.Serve(side)
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read from a peer served after Close: %v, want EOF", err)
	}
}

// TestClusterAntiEntropyCatchUp lets one instance log 1,000 host deltas
// (about 80 KB of JSON) before it has peers, then forms the cluster:
// the anti-entropy answer is more than one zof frame can hold, so it
// must travel as several contiguous runs, and the follower converges.
func TestClusterAntiEntropyCatchUp(t *testing.T) {
	const deltas = 1000
	m0 := startMember(t, 0, 2)
	m1 := startMember(t, 1, 2)
	for i := 0; i < deltas; i++ {
		m0.in.appendLocal(Delta{Kind: DeltaHost, Host: &controller.HostInfo{
			MAC:  packet.MACFromUint64(0x020000000000 | uint64(i)),
			IP:   packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)},
			DPID: 1, Port: 1,
		}})
	}
	form(m0, m1)
	// The version vector moves before the deltas are applied; wait for both.
	waitUntil(t, 5*time.Second, func() bool {
		return m1.in.VersionVector()[0] == deltas && m1.in.DeltasApplied() == deltas
	})
}
