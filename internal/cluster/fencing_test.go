package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/zof"
)

// TestClusterFencingHammer is the dual-master drill, meant to run
// under -race: two instances whose east-west links ride netem Channels,
// one switch connected to BOTH. The partition is cut, so instance 1
// stops hearing instance 0's heartbeats, declares it dead, and claims
// the lease at a higher term — while instance 0, alive and still
// holding its switch connection, keeps hammering FlowMods. The switch
// itself arbitrates: the higher-term SetRole demotes instance 0's
// connection to slave, and every subsequent write from it is fenced
// with an is-slave error. On heal, instance 0 learns the higher term
// from a heartbeat renewal and stands down; the table converges to
// instance 1's intent and its auditor finds nothing to repair.
func TestClusterFencingHammer(t *testing.T) {
	m0 := startMember(t, 0, 2, installer{n: 3})
	m1 := startMember(t, 1, 2, installer{n: 3})

	// East-west over Channels so the control plane can be partitioned
	// while both instances keep their southbound switch connections.
	c01 := netem.NewChannel(m1.in.Serve) // m0 -> m1
	defer c01.Close()
	c10 := netem.NewChannel(m0.in.Serve) // m1 -> m0
	defer c10.Close()
	m0.in.Join(map[int]func() (net.Conn, error){1: c01.Dial})
	m1.in.Join(map[int]func() (net.Conn, error){0: c10.Dial})
	part := netem.NewPartition(c01, c10)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 100)
	dp0, err := dataplane.Connect(sw, m0.ctl.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dp0.Close()
	waitUntil(t, 3*time.Second, func() bool { return m0.in.IsMaster(1) })
	dp1, err := dataplane.Connect(sw, m1.ctl.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()
	waitUntil(t, 3*time.Second, func() bool {
		l, ok := m1.in.Lease(1)
		return ok && l.Holder == 0
	})
	waitUntil(t, 3*time.Second, func() bool { return converged(m0.ctl, 1, 3) })
	sc0, _ := m0.ctl.Switch(1)

	// Hammer from the incumbent: a stream of writes that keeps running
	// straight through the partition, the rival claim, and the heal.
	stop := make(chan struct{})
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEthSrc
			m.EthSrc[4] = 0xAA
			m.EthSrc[5] = byte(i)
			_ = sc0.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: m,
				Priority: 10, Cookie: 0xAA00 + uint64(byte(i)), BufferID: zof.NoBuffer})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	part.Cut()
	// Instance 1 misses heartbeats, expires the dead peer's lease, and
	// takes over at a higher term.
	waitUntil(t, 5*time.Second, func() bool { return m1.in.IsMaster(1) })
	l1, _ := m1.in.Lease(1)
	if l1.Term < 2 {
		t.Fatalf("takeover term = %d, want >= 2", l1.Term)
	}
	// The switch's fencing generation moves with the claim: instance
	// 0's connection becomes slave, its hammer writes bounce.
	waitUntil(t, 2*time.Second, func() bool {
		gen, set := sw.MasterGeneration()
		return set && gen >= l1.Term
	})

	// Let both sides run dual-master for a while under the race
	// detector: m0 still believes it is master and keeps writing.
	time.Sleep(200 * time.Millisecond)
	if !m0.in.IsMaster(1) {
		t.Fatal("partitioned incumbent should still believe it holds the lease")
	}

	part.Heal()
	// A renewal at term >= 2 reaches instance 0; it stands down.
	waitUntil(t, 5*time.Second, func() bool { return m0.in.Deposals() >= 1 })
	waitUntil(t, 2*time.Second, func() bool { return !m0.in.IsMaster(1) })
	if sc, ok := m0.ctl.Switch(1); ok && sc.Active() {
		t.Error("deposed master's connection still active")
	}

	close(stop)
	<-hammerDone

	// Convergence: exactly the new master's three intent rules, all at
	// its epoch. Every fenced hammer write either never landed or was
	// flushed by the epoch-selective reconcile at takeover.
	waitUntil(t, 5*time.Second, func() bool { return converged(m1.ctl, 1, 3) })
	sc1, _ := m1.ctl.Switch(1)
	rep, err := m1.ctl.AuditSwitch(sc1)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Repairs() != 0 {
		t.Errorf("audit repairs after convergence = %d, want 0", rep.Repairs())
	}
	// The partition actually bit: both directions discarded frames.
	toT, toD := part.Dropped()
	if toT == 0 && toD == 0 {
		t.Error("partition discarded no frames — cut did not take effect")
	}
	// Anti-entropy healed the logs: both sides agree on both vectors.
	waitUntil(t, 3*time.Second, func() bool {
		v0, v1 := m0.in.VersionVector(), m1.in.VersionVector()
		return v0[0] == v1[0] && v0[1] == v1[1]
	})
}
