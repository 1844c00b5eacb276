package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

func ip(a, b, c, d byte) packet.IPv4Addr { return packet.IPv4Addr{a, b, c, d} }

// pingOK pings until success or the deadline. Individual echoes may be
// lost while the reactive control plane converges (the classic
// first-packet caveat of reactive SDN), so like a real `ping` we send
// more than one.
func pingOK(t *testing.T, h *netem.Host, dst packet.IPv4Addr, timeout time.Duration) time.Duration {
	t.Helper()
	deadline := time.Now().Add(timeout)
	attempt := timeout / 4
	if attempt > time.Second {
		attempt = time.Second
	}
	var lastErr error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), attempt)
		rtt, err := h.Ping(ctx, dst)
		cancel()
		if err == nil {
			return rtt
		}
		lastErr = err
	}
	t.Fatalf("%s ping %v: %v", h.Name, dst, lastErr)
	return 0
}

func pingFail(t *testing.T, h *netem.Host, dst packet.IPv4Addr, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, err := h.Ping(ctx, dst); err == nil {
		t.Fatalf("%s ping %v unexpectedly succeeded", h.Name, dst)
	}
}

func TestLearningSwitchEndToEnd(t *testing.T) {
	n, err := Start(Options{
		Graph: topo.Linear(3, 1000),
		Apps:  []controller.App{apps.NewLearningSwitch()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h1, err := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.AddHost("h2", 3, ip(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	rtt := pingOK(t, h1, h2.IP, 5*time.Second)
	t.Logf("first ping rtt=%v", rtt)
	// Repeat pings exercise installed flows (and the reverse path).
	for i := 0; i < 3; i++ {
		pingOK(t, h2, h1.IP, 3*time.Second)
	}
	// Hosts were learned into the NIB with their IPs.
	if _, ok := n.Controller.NIB().HostByIP(h1.IP); !ok {
		t.Error("h1 not in NIB")
	}
	if _, ok := n.Controller.NIB().HostByIP(h2.IP); !ok {
		t.Error("h2 not in NIB")
	}
}

func TestDiscoveryFindsAllLinks(t *testing.T) {
	g := topo.Ring(4, 1000)
	n, err := Start(Options{
		Graph: g,
		Apps:  []controller.App{apps.NewLearningSwitch()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DiscoverLinks(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := n.Controller.NIB().Graph()
	if got.NumLinks() != 4 || got.NumNodes() != 4 {
		t.Fatalf("NIB graph = %d nodes %d links", got.NumNodes(), got.NumLinks())
	}
	// Learning switch still works on the ring (no storm) because floods
	// follow the spanning tree.
	h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	h3, _ := n.AddHost("h3", 3, ip(10, 0, 0, 3))
	pingOK(t, h1, h3.IP, 5*time.Second)
}

func TestRoutingReroutesAroundFailure(t *testing.T) {
	// Diamond: 1-2-4, 1-3-4.
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 1000})

	routing := apps.NewRouting()
	routing.Debugf = t.Logf
	n, err := Start(Options{
		Graph: g,
		Apps:  []controller.App{routing, apps.NewLearningSwitch()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DiscoverLinks(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	h4, _ := n.AddHost("h4", 4, ip(10, 0, 0, 4))

	pingOK(t, h1, h4.IP, 5*time.Second)

	// Fail whichever 1-2 path link; the emulator marks ports down,
	// discovery emits LinkDown, routing flushes, next ping re-routes.
	if err := n.Emu.FailLink(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}); err != nil {
		t.Fatal(err)
	}
	// Give the PortStatus + flush a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := h1.Ping(ctx, h4.IP)
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			for node, sw := range n.Emu.Switches {
				t.Logf("switch %d: flows=%d packetins=%d", node, sw.FlowCount(), sw.PacketIns.Load())
				sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff,
					Match: zof.MatchAll()}, 1, func(rep zof.Message, _ uint32) {
					if sr, ok := rep.(*zof.StatsReply); ok {
						for _, fs := range sr.Flows {
							t.Logf("  s%d: prio=%d match=%v actions=%v pkts=%d",
								node, fs.Priority, fs.Match, fs.Actions, fs.PacketCount)
						}
					}
				})
			}
			t.Logf("NIB links: %d routing flushes: %d", n.Controller.NIB().Graph().NumLinks(), routing.Flushes.Load())
			for _, h := range n.Controller.NIB().Hosts() {
				t.Logf("NIB host: %+v", h)
			}
			t.Fatal("never re-routed after link failure")
		}
	}
	// And again with the second path killed too: unreachable.
	if err := n.Emu.FailLink(topo.LinkKey{A: 1, B: 3, APort: 2, BPort: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	pingFail(t, h1, h4.IP, 400*time.Millisecond)
}

func TestACLBlocksAndUnblocks(t *testing.T) {
	acl := apps.NewACL()
	ls := apps.NewLearningSwitch()
	n, err := Start(Options{
		Graph: topo.Linear(2, 1000),
		Apps:  []controller.App{acl, ls},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	h2, _ := n.AddHost("h2", 2, ip(10, 0, 0, 2))

	var mu sync.Mutex
	got := 0
	h2.OnUDP = func(packet.IPv4Addr, uint16, uint16, []byte) {
		mu.Lock()
		got++
		mu.Unlock()
	}
	// Baseline: UDP flows.
	pingOK(t, h1, h2.IP, 5*time.Second) // resolves ARP both ways
	h1.SendUDP(h2.IP, 5, 7777, []byte("pre"))
	waitFor(t, time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return got == 1 })

	// Deny UDP to port 7777 network-wide.
	deny := zof.MatchAll()
	deny.Wildcards &^= zof.WEtherType | zof.WIPProto | zof.WTPDst
	deny.EtherType = packet.EtherTypeIPv4
	deny.IPProto = packet.ProtoUDP
	deny.TPDst = 7777
	id := acl.Deny(n.Controller, deny)
	if err := n.Controller.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1.SendUDP(h2.IP, 5, 7777, []byte("blocked"))
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	if got != 1 {
		mu.Unlock()
		t.Fatalf("blocked datagram delivered (got=%d)", got)
	}
	mu.Unlock()
	// Other ports unaffected.
	h1.SendUDP(h2.IP, 5, 8888, []byte("other"))
	waitFor(t, time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return got == 2 })
	// Pings unaffected.
	pingOK(t, h1, h2.IP, 2*time.Second)

	// Lift the rule.
	if !acl.Allow(n.Controller, id) {
		t.Fatal("allow failed")
	}
	if err := n.Controller.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1.SendUDP(h2.IP, 5, 7777, []byte("post"))
	waitFor(t, time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return got == 3 })
	if acl.Rules() != 0 {
		t.Errorf("rules = %d", acl.Rules())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLoadBalancerSpreadsFlows(t *testing.T) {
	vip := ip(10, 0, 0, 100)
	lb := apps.NewLoadBalancer(vip, ip(10, 0, 0, 11), ip(10, 0, 0, 12))
	ls := apps.NewLearningSwitch()
	g := topo.New()
	g.AddNode(1)
	n, err := Start(Options{Graph: g, Apps: []controller.App{lb, ls}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	client, _ := n.AddHost("client", 1, ip(10, 0, 0, 1))
	b1, _ := n.AddHost("b1", 1, ip(10, 0, 0, 11))
	b2, _ := n.AddHost("b2", 1, ip(10, 0, 0, 12))

	// Backends echo UDP back to the sender.
	var mu sync.Mutex
	served := map[string]int{}
	mkEcho := func(name string, h *netem.Host) {
		h.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
			mu.Lock()
			served[name]++
			mu.Unlock()
			h.SendUDP(src, dp, sp, payload)
		}
	}
	mkEcho("b1", b1)
	mkEcho("b2", b2)

	// Populate the NIB with backend locations (any traffic does it).
	pingOK(t, b1, client.IP, 5*time.Second)
	pingOK(t, b2, client.IP, 5*time.Second)

	// Client replies arrive appearing to come from the VIP.
	var fromVIP, total int
	client.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
		mu.Lock()
		total++
		if src == vip {
			fromVIP++
		}
		mu.Unlock()
	}

	const flows = 16
	for i := 0; i < flows; i++ {
		client.SendUDP(vip, uint16(20000+i), 80, []byte("req"))
		// Pace so each first-packet traverses the controller.
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return served["b1"]+served["b2"] >= flows
	})
	mu.Lock()
	defer mu.Unlock()
	if served["b1"] == 0 || served["b2"] == 0 {
		t.Errorf("no spread: b1=%d b2=%d", served["b1"], served["b2"])
	}
	if fromVIP != total || total < flows {
		t.Errorf("replies: %d total, %d from VIP", total, fromVIP)
	}
	if len(lb.Decisions()) != flows {
		t.Errorf("decisions = %d, want %d", len(lb.Decisions()), flows)
	}
}

// flowRemovedRecorder captures FlowRemoved events.
type flowRemovedRecorder struct {
	mu  sync.Mutex
	evs []controller.FlowRemovedEvent
}

func (r *flowRemovedRecorder) Name() string { return "fr-recorder" }
func (r *flowRemovedRecorder) FlowRemoved(c *controller.Controller, ev controller.FlowRemovedEvent) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func TestFlowRemovedReachesApps(t *testing.T) {
	rec := &flowRemovedRecorder{}
	n, err := Start(Options{
		Graph: topo.Linear(2, 1000),
		Apps:  []controller.App{rec},
		Emu:   netem.Config{TickEvery: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	sc, ok := n.Controller.Switch(1)
	if !ok {
		t.Fatal("switch 1 missing")
	}
	m := zof.MatchAll()
	m.Wildcards &^= zof.WInPort
	m.InPort = 99
	if err := sc.InstallFlow(&zof.FlowMod{
		Command: zof.FlowAdd, Match: m, Priority: 5, IdleTimeout: 1,
		Flags: zof.FlagSendFlowRemoved, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.evs) == 1
	})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ev := rec.evs[0]
	if ev.DPID != 1 || ev.Msg.Reason != zof.RemovedIdleTimeout || ev.Msg.Priority != 5 {
		t.Errorf("event = %+v", ev)
	}
}

func TestControllerStatsRoundTrip(t *testing.T) {
	mon := apps.NewStatsMonitor()
	ls := apps.NewLearningSwitch()
	n, err := Start(Options{
		Graph: topo.Linear(2, 1000),
		Apps:  []controller.App{ls, mon},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	h2, _ := n.AddHost("h2", 2, ip(10, 0, 0, 2))
	pingOK(t, h1, h2.IP, 5*time.Second)

	if err := mon.CollectOnce(n.Controller); err != nil {
		t.Fatal(err)
	}
	if mon.TotalTxBytes() == 0 {
		t.Error("no bytes counted after traffic")
	}
	// The inter-switch port on s1 carried the ping.
	sample, ok := mon.Port(1, 1)
	if !ok || sample.Stats.TxPackets == 0 {
		t.Errorf("port sample = %+v ok=%v", sample, ok)
	}
}

func TestSwitchDownCleansNIB(t *testing.T) {
	n, err := Start(Options{
		Graph: topo.Linear(2, 1000),
		Apps:  []controller.App{apps.NewLearningSwitch()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if len(n.Controller.NIB().Switches()) != 2 {
		t.Fatal("switches missing")
	}
	// Kill switch 2's session.
	n.datapaths[1].Close()
	waitFor(t, 5*time.Second, func() bool {
		return !n.Controller.NIB().HasSwitch(2)
	})
	if n.Controller.NIB().HasSwitch(1) != true {
		t.Error("switch 1 vanished too")
	}
}

// pktinCounter sits first in the app chain and counts every packet-in
// the apps see — LLDP never reaches them — without consuming any.
type pktinCounter struct{ n atomic.Int64 }

func (*pktinCounter) Name() string { return "pktin-counter" }
func (p *pktinCounter) PacketIn(*controller.Controller, controller.PacketInEvent) bool {
	p.n.Add(1)
	return false
}

// TestRoutingFenceOnePacketInPerFlow: on a k=4 fat-tree over real TCP
// sessions, N first frames of never-seen pairs cost exactly N
// packet-ins fleet-wide — the released frame waits for its path
// instead of out-running it and being punted again at a later hop —
// and every frame is delivered exactly once.
func TestRoutingFenceOnePacketInPerFlow(t *testing.T) {
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counter := &pktinCounter{}
	n, err := Start(Options{
		Graph: g,
		Apps:  []controller.App{counter, apps.NewRouting(), apps.NewLearningSwitch()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DiscoverLinks(g.NumLinks(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", edges[len(edges)-1], ip(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The NIB learns where B is without B flooding anything.
	at, _ := n.Emu.Attachment("b")
	n.Controller.NIB().ApplyHost(controller.HostInfo{MAC: b.MAC, IP: b.IP, DPID: uint64(at.Switch), Port: at.Port})
	const flows, window, injectPort = 256, 16, 99
	delivered := make(chan uint16, flows)
	b.OnUDP = func(_ packet.IPv4Addr, srcPort, _ uint16, _ []byte) { delivered <- srcPort }
	ingress := edges[:4]
	for _, e := range ingress {
		n.Emu.Switches[e].AddPort(injectPort, "inject", 1000).SetTx(func([]byte) {})
	}
	inject := func(i int) {
		src := ip(10, 1, byte(i>>8), byte(i))
		buf := packet.NewBuffer(64)
		udp := packet.UDP{SrcPort: uint16(i), DstPort: 7}
		udp.SerializeToWithChecksum(buf, src, b.IP)
		hdr := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: b.IP}
		hdr.SerializeTo(buf)
		eth := packet.Ethernet{Dst: b.MAC, Src: packet.MAC{2, 1, 0, 0, byte(i >> 8), byte(i)}, EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(buf)
		n.Emu.Switches[ingress[i%len(ingress)]].HandleFrame(injectPort, buf.Bytes())
	}
	seen := make(map[uint16]bool, flows)
	next := 0
	for ; next < window; next++ {
		inject(next)
	}
	for len(seen) < flows {
		select {
		case id := <-delivered:
			if seen[id] {
				t.Fatalf("flow %d delivered twice", id)
			}
			seen[id] = true
			if next < flows {
				inject(next)
				next++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d first frames delivered", len(seen), flows)
		}
	}
	if err := n.Controller.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := counter.n.Load(); got != flows {
		t.Errorf("%d first frames cost %d packet-ins, want %d", flows, got, flows)
	}
	if got := b.RxUDP.Load(); got != flows {
		t.Errorf("host received %d datagrams, want %d", got, flows)
	}
}

// TestStartOpensNoSocket checks that core.Start attaches its switches
// over in-process streams: no switch's session is a TCP connection.
func TestStartOpensNoSocket(t *testing.T) {
	n, err := Start(Options{Graph: topo.Linear(3, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	conns := n.Controller.Switches()
	if len(conns) != 3 {
		t.Fatalf("%d switches connected, want 3", len(conns))
	}
	for _, sc := range conns {
		if nw := sc.RemoteAddr().Network(); nw == "tcp" {
			t.Errorf("switch %#x attached over %s", sc.DPID(), nw)
		}
	}
}
