package controller

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// recorder captures every event class.
type recorder struct {
	mu         sync.Mutex
	ups, downs []uint64
	pins       []PacketInEvent
	hosts      []HostLearned
	linkUps    []LinkUp
	linkDowns  []LinkDown
	consume    bool
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) SwitchUp(c *Controller, ev SwitchUp) {
	r.mu.Lock()
	r.ups = append(r.ups, ev.DPID)
	r.mu.Unlock()
}
func (r *recorder) SwitchDown(c *Controller, ev SwitchDown) {
	r.mu.Lock()
	r.downs = append(r.downs, ev.DPID)
	r.mu.Unlock()
}
func (r *recorder) PacketIn(c *Controller, ev PacketInEvent) bool {
	r.mu.Lock()
	r.pins = append(r.pins, ev)
	r.mu.Unlock()
	return r.consume
}
func (r *recorder) HostLearned(c *Controller, ev HostLearned) {
	r.mu.Lock()
	r.hosts = append(r.hosts, ev)
	r.mu.Unlock()
}
func (r *recorder) LinkUp(c *Controller, ev LinkUp) {
	r.mu.Lock()
	r.linkUps = append(r.linkUps, ev)
	r.mu.Unlock()
}
func (r *recorder) LinkDown(c *Controller, ev LinkDown) {
	r.mu.Lock()
	r.linkDowns = append(r.linkDowns, ev)
	r.mu.Unlock()
}

func (r *recorder) counts() (ups, downs, pins int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ups), len(r.downs), len(r.pins)
}

// newTestController starts a controller plus n real datapath sessions.
func newTestController(t *testing.T, rec *recorder, n int) (*Controller, []*dataplane.Switch, []*dataplane.Datapath) {
	t.Helper()
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	if rec != nil {
		ctl.Use(rec)
	}
	var sws []*dataplane.Switch
	var dps []*dataplane.Datapath
	for i := 1; i <= n; i++ {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: uint64(i)})
		sw.AddPort(1, "p1", 1000)
		sw.AddPort(2, "p2", 1000)
		dp, err := attach(sw, netem.NewChannel(ctl.Serve))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
		sws = append(sws, sw)
		dps = append(dps, dp)
	}
	if err := ctl.WaitForSwitches(n, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return ctl, sws, dps
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSwitchLifecycleEvents(t *testing.T) {
	rec := &recorder{}
	ctl, _, dps := newTestController(t, rec, 2)
	waitUntil(t, 2*time.Second, func() bool { u, _, _ := rec.counts(); return u == 2 })
	if !hasSwitch(ctl.NIB(), 1) || !hasSwitch(ctl.NIB(), 2) {
		t.Fatal("NIB missing switches")
	}
	dps[0].Close()
	waitUntil(t, 2*time.Second, func() bool { _, d, _ := rec.counts(); return d == 1 })
	if hasSwitch(ctl.NIB(), 1) {
		t.Error("NIB kept departed switch")
	}
}

func TestBarrierAndStatsViaSwitchConn(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 1)
	sc, ok := ctl.Switch(1)
	if !ok {
		t.Fatal("no switch 1")
	}
	if sc.Features().DPID != 1 || len(sc.Features().Ports) != 2 {
		t.Fatalf("features = %+v", sc.Features())
	}
	// Install then barrier: flow must be visible afterwards.
	if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 3, BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sws[0].FlowCount() != 1 {
		t.Fatalf("flows = %d", sws[0].FlowCount())
	}
	rep, err := sc.Stats(&zof.StatsRequest{Kind: zof.StatsTable}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].ActiveCount != 1 {
		t.Fatalf("table stats = %+v", rep.Tables)
	}
	if err := sc.conn.Echo([]byte("zen"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// An erroring flow-mod (bad table) surfaces as *zof.Error via the
	// pending map when using request... flow mods are async, so check
	// via a stats request still working afterwards.
	if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, TableID: 9,
		Match: zof.MatchAll(), BufferID: zof.NoBuffer}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDPIDNewestWins(t *testing.T) {
	ctl, _, _ := newTestController(t, nil, 1)
	first, _ := ctl.Switch(1)

	sw2 := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw2.AddPort(1, "x", 10)
	dp2, err := attach(sw2, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, 2*time.Second, func() bool {
		cur, ok := ctl.Switch(1)
		return ok && cur != first
	})
	// Old connection must be closed; new one works.
	cur, _ := ctl.Switch(1)
	if err := cur.Barrier(2 * time.Second); err != nil {
		t.Fatalf("new connection barrier: %v", err)
	}
}

func TestLLDPDiscoveryThroughRealPipes(t *testing.T) {
	rec := &recorder{}
	ctl, sws, _ := newTestController(t, rec, 2)
	// Wire sw1.p1 <-> sw2.p1 directly (synchronous is fine: distinct
	// switches, no loop).
	p1, _ := sws[0].Port(1)
	p2, _ := sws[1].Port(1)
	p1.SetTx(func(data []byte) { sws[1].HandleFrame(1, data) })
	p2.SetTx(func(data []byte) { sws[0].HandleFrame(1, data) })

	ctl.Probe()
	waitUntil(t, 2*time.Second, func() bool {
		return ctl.NIB().Graph().NumLinks() == 1
	})
	rec.mu.Lock()
	nLinkUps := len(rec.linkUps)
	rec.mu.Unlock()
	if nLinkUps == 0 {
		t.Error("no LinkUp event")
	}
	if !ctl.NIB().IsSwitchPort(1, 1) || !ctl.NIB().IsSwitchPort(2, 1) {
		t.Error("switch ports not classified")
	}
	if ctl.NIB().IsSwitchPort(1, 2) {
		t.Error("host port misclassified")
	}
	// Port down tears the link down.
	sws[0].SetPortDown(1, true)
	waitUntil(t, 2*time.Second, func() bool {
		return ctl.NIB().Graph().NumLinks() == 0
	})
	rec.mu.Lock()
	nLinkDowns := len(rec.linkDowns)
	rec.mu.Unlock()
	if nLinkDowns == 0 {
		t.Error("no LinkDown event")
	}
}

func TestHostLearningFromPacketIn(t *testing.T) {
	rec := &recorder{}
	ctl, sws, _ := newTestController(t, rec, 1)

	// Craft an ARP frame from a host and push it through the switch
	// (table miss -> packet-in -> learning).
	eth, arp := packet.NewARPRequest(packet.MAC{2, 0, 0, 0, 0, 9},
		packet.IPv4Addr{10, 0, 0, 9}, packet.IPv4Addr{10, 0, 0, 1})
	buf := packet.NewBuffer(64)
	arp.SerializeTo(buf)
	eth.SerializeTo(buf)
	sws[0].HandleFrame(2, buf.Bytes())

	waitUntil(t, 2*time.Second, func() bool {
		_, ok := ctl.NIB().HostByIP(packet.IPv4Addr{10, 0, 0, 9})
		return ok
	})
	h, _ := ctl.NIB().HostByIP(packet.IPv4Addr{10, 0, 0, 9})
	if h.DPID != 1 || h.Port != 2 || h.MAC != (packet.MAC{2, 0, 0, 0, 0, 9}) {
		t.Fatalf("host = %+v", h)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.hosts) != 1 {
		t.Errorf("HostLearned events = %d", len(rec.hosts))
	}
}

func TestPacketInConsumption(t *testing.T) {
	first := &recorder{consume: true}
	second := &recorder{}
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(first, second)
	ctl.InjectEvent(PacketInEvent{DPID: 5, Msg: zof.PacketIn{Data: []byte{1}}})
	waitUntil(t, 2*time.Second, func() bool {
		_, _, p := first.counts()
		return p == 1
	})
	time.Sleep(20 * time.Millisecond)
	if _, _, p := second.counts(); p != 0 {
		t.Error("consumed packet-in reached the second app")
	}
}

func TestEventQueueOverflowDoesNotDeadlock(t *testing.T) {
	slow := &slowApp{release: make(chan struct{})}
	ctl, err := New(Config{EventQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(slow)
	// Flood far beyond the queue; posts must never block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			ctl.InjectEvent(PacketInEvent{DPID: 1})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("posting deadlocked on a full queue")
	}
	close(slow.release)
}

type slowApp struct {
	release chan struct{}
	once    sync.Once
}

func (s *slowApp) Name() string { return "slow" }
func (s *slowApp) PacketIn(c *Controller, ev PacketInEvent) bool {
	s.once.Do(func() { <-s.release })
	return true
}

func TestAppPanicIsContained(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	rec := &recorder{}
	ctl.Use(panicApp{}, rec)
	ctl.InjectEvent(PacketInEvent{DPID: 1})
	ctl.InjectEvent(PacketInEvent{DPID: 2})
	// The dispatcher must survive; the recorder never sees the events
	// of the panicking dispatch cycle, but the loop keeps running.
	time.Sleep(50 * time.Millisecond)
	ctl.InjectEvent(SwitchUp{DPID: 7})
	waitUntil(t, 2*time.Second, func() bool {
		u, _, _ := rec.counts()
		return u == 1
	})
}

type panicApp struct{}

func (panicApp) Name() string { return "panic" }
func (panicApp) PacketIn(c *Controller, ev PacketInEvent) bool {
	panic("app bug")
}

func TestWaitForSwitchesTimeout(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.WaitForSwitches(1, 50*time.Millisecond); err == nil {
		t.Fatal("expected timeout")
	}
}

// TestWaitForSwitchesWakesOnRegistration: a waiter for three switches
// is still waiting while two are registered and returns on the third,
// and a wait that times out reports the registry's count.
func TestWaitForSwitchesWakesOnRegistration(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	waited := make(chan error, 1)
	go func() { waited <- ctl.WaitForSwitches(3, 10*time.Second) }()
	connect := func(dpid uint64) {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: dpid})
		sw.AddPort(1, "p1", 1000)
		dp, err := attach(sw, netem.NewChannel(ctl.Serve))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
	}

	connect(1)
	connect(2)
	if err := ctl.WaitForSwitches(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		t.Fatalf("waiter for 3 switches returned with 2 registered: %v", err)
	default:
	}
	err = ctl.WaitForSwitches(3, 20*time.Millisecond)
	if want := "only 2 of 3 switches connected"; err == nil || err.Error() != want {
		t.Fatalf("timed-out wait: %v, want %q", err, want)
	}

	connect(3)
	if err := <-waited; err != nil {
		t.Fatalf("waiter for 3 switches after the third registered: %v", err)
	}
}

// TestSwitchesAgreeWithNIB is the registration hammer: while 8
// switches register at once, a reader spins reading Switches() and then
// NIB().Switches() — the order in which a client reads /v1/health and
// then /v1/switches — and every DPID the first lists must be in the
// second, in every one of 500 rounds.
func TestSwitchesAgreeWithNIB(t *testing.T) {
	const switches, rounds = 8, 500
	var missed []string
	for round := 0; round < rounds; round++ {
		ctl, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		stop, read := make(chan struct{}), make(chan []string)
		go func() {
			var out []string
			for {
				select {
				case <-stop:
					read <- out
					return
				default:
				}
				sessions, listed := ctl.Switches(), ctl.NIB().Switches()
				for _, sc := range sessions {
					if !slices.ContainsFunc(listed, func(f zof.FeaturesReply) bool { return f.DPID == sc.DPID() }) {
						out = append(out, fmt.Sprintf("round %d: %#x has a session but no NIB entry", round, sc.DPID()))
					}
				}
			}
		}()
		var wg sync.WaitGroup
		dps := make([]*dataplane.Datapath, switches)
		for i := range dps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw := dataplane.NewSwitch(dataplane.Config{DPID: uint64(i + 1)})
				sw.AddPort(1, "p1", 1000)
				dps[i], _ = attach(sw, netem.NewChannel(ctl.Serve))
			}()
		}
		wg.Wait()
		err = ctl.WaitForSwitches(switches, 5*time.Second)
		close(stop)
		missed = append(missed, <-read...)
		for _, dp := range dps {
			if dp != nil {
				dp.Close()
			}
		}
		ctl.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(missed) > 0 {
		t.Fatalf("%d reads saw a session the NIB did not list; first: %s", len(missed), missed[0])
	}
}

func TestCloseIdempotent(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNIBHostMove(t *testing.T) {
	nib := NewNIB()
	nib.addSwitch(zof.FeaturesReply{DPID: 1})
	nib.addSwitch(zof.FeaturesReply{DPID: 2})
	mac := packet.MAC{2, 0, 0, 0, 0, 1}
	ip := packet.IPv4Addr{10, 0, 0, 1}
	if !nib.learnHost(mac, ip, 1, 3) {
		t.Fatal("first sighting not new")
	}
	if nib.learnHost(mac, ip, 1, 3) {
		t.Fatal("same sighting reported as change")
	}
	// Move.
	if !nib.learnHost(mac, ip, 2, 5) {
		t.Fatal("move not detected")
	}
	h, _ := nib.Host(mac)
	if h.DPID != 2 || h.Port != 5 {
		t.Fatalf("host = %+v", h)
	}
	// IP retained when later sightings lack one.
	if nib.learnHost(mac, packet.IPv4Addr{}, 2, 5) {
		t.Fatal("no-op sighting reported as change")
	}
	h, _ = nib.Host(mac)
	if h.IP != ip {
		t.Fatalf("IP lost: %+v", h)
	}
	// Broadcast/multicast never learned.
	if nib.learnHost(packet.Broadcast, ip, 1, 1) {
		t.Fatal("broadcast learned")
	}
	if len(nib.Hosts()) != 1 {
		t.Fatalf("hosts = %d", len(nib.Hosts()))
	}
}

func TestNIBRemoveSwitchCleansLinks(t *testing.T) {
	nib := NewNIB()
	nib.addSwitch(zof.FeaturesReply{DPID: 1})
	nib.addSwitch(zof.FeaturesReply{DPID: 2})
	nib.addLink(1, 1, 2, 1)
	if nib.Graph().NumLinks() != 1 {
		t.Fatal("link missing")
	}
	nib.removeSwitch(2)
	if nib.Graph().NumLinks() != 0 {
		t.Fatal("stale link survived switch removal")
	}
	if hasSwitch(nib, 2) {
		t.Fatal("switch still present")
	}
}

// TestServeAfterClose pins Serve's teardown contract: a connection
// handed over after Close is closed, and no session starts (connWG is
// never added to after Close has waited on it).
func TestServeAfterClose(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	sw, side := net.Pipe()
	defer sw.Close()
	ctl.Serve(side)
	if _, err := side.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on the served end after Close: %v, want it closed", err)
	}
	if len(ctl.Switches()) != 0 {
		t.Fatal("a session registered after Close")
	}
}
