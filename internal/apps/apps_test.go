package apps

import (
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// harness starts a controller with the given apps and n connected
// switches (2 ports each).
func harness(t *testing.T, n int, appList ...controller.App) (*controller.Controller, []*dataplane.Switch) {
	t.Helper()
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	ctl.Use(appList...)
	var sws []*dataplane.Switch
	for i := 1; i <= n; i++ {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: uint64(i)})
		sw.AddPort(1, "p1", 1000)
		sw.AddPort(2, "p2", 1000)
		dp, err := dataplane.Connect(sw, ctl.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
		sws = append(sws, sw)
	}
	if err := ctl.WaitForSwitches(n, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return ctl, sws
}

func arpFrame(srcMAC packet.MAC, srcIP, dstIP packet.IPv4Addr) []byte {
	eth, arp := packet.NewARPRequest(srcMAC, srcIP, dstIP)
	b := packet.NewBuffer(64)
	arp.SerializeTo(b)
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLearningSwitchLearnsAndForgets(t *testing.T) {
	ls := NewLearningSwitch()
	ctl, sws := harness(t, 1, ls)

	mac := packet.MAC{2, 0, 0, 0, 0, 5}
	sws[0].HandleFrame(1, arpFrame(mac, packet.IPv4Addr{10, 0, 0, 5}, packet.IPv4Addr{10, 0, 0, 6}))
	waitCond(t, 2*time.Second, func() bool {
		_, ok := ls.Learned(1, mac)
		return ok
	})
	if p, _ := ls.Learned(1, mac); p != 1 {
		t.Fatalf("learned port = %d", p)
	}
	// Switch departure clears its table.
	ctl.InjectEvent(controller.SwitchDown{DPID: 1})
	waitCond(t, 2*time.Second, func() bool {
		_, ok := ls.Learned(1, mac)
		return !ok
	})
}

func TestLearningSwitchInstallsFlowForKnownDst(t *testing.T) {
	ls := NewLearningSwitch()
	_, sws := harness(t, 1, ls)
	macA := packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{2, 0, 0, 0, 0, 0xb}
	// A speaks from port 1, B from port 2 (both learned).
	sws[0].HandleFrame(1, arpFrame(macA, packet.IPv4Addr{10, 0, 0, 0xa}, packet.IPv4Addr{10, 0, 0, 0xb}))
	waitCond(t, 2*time.Second, func() bool { _, ok := ls.Learned(1, macA); return ok })
	sws[0].HandleFrame(2, arpFrame(macB, packet.IPv4Addr{10, 0, 0, 0xb}, packet.IPv4Addr{10, 0, 0, 0xa}))
	waitCond(t, 2*time.Second, func() bool { _, ok := ls.Learned(1, macB); return ok })

	// Unicast A->B now triggers a flow install.
	b := packet.NewBuffer(64)
	udp := packet.UDP{SrcPort: 1, DstPort: 2}
	udp.SerializeTo(b)
	ip := packet.IPv4{TTL: 4, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 0xa}, Dst: packet.IPv4Addr{10, 0, 0, 0xb}}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	sws[0].HandleFrame(1, b.Bytes())
	waitCond(t, 2*time.Second, func() bool { return sws[0].FlowCount() == 1 })
}

func TestRoutingIgnoresUnknownAndBroadcast(t *testing.T) {
	r := NewRouting()
	ctl, _ := harness(t, 1, r)
	// Broadcast: not handled (returns false) — verify indirectly via a
	// second app that must still see the event.
	probe := &probeApp{}
	ctl.Use(probe)
	ctl.InjectEvent(controller.PacketInEvent{DPID: 1, Msg: zof.PacketIn{
		InPort: 1,
		Data:   arpFrame(packet.MAC{2, 0, 0, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}),
	}})
	waitCond(t, 2*time.Second, func() bool { return probe.seen.Load() == 1 })
}

func TestACLBookkeeping(t *testing.T) {
	acl := NewACL()
	ctl, sws := harness(t, 2, acl)
	m := zof.MatchAll()
	m.Wildcards &^= zof.WIPProto
	m.IPProto = packet.ProtoUDP
	id := acl.Deny(ctl, m)
	if acl.Rules() != 1 {
		t.Fatalf("rules = %d", acl.Rules())
	}
	waitCond(t, 2*time.Second, func() bool {
		return sws[0].FlowCount() == 1 && sws[1].FlowCount() == 1
	})
	if !acl.Allow(ctl, id) {
		t.Fatal("allow failed")
	}
	waitCond(t, 2*time.Second, func() bool {
		return sws[0].FlowCount() == 0 && sws[1].FlowCount() == 0
	})
	if acl.Allow(ctl, id) {
		t.Fatal("double allow succeeded")
	}
}

func TestLoadBalancerPickSticky(t *testing.T) {
	lb := NewLoadBalancer(packet.IPv4Addr{10, 0, 0, 100},
		packet.IPv4Addr{10, 0, 0, 11}, packet.IPv4Addr{10, 0, 0, 12})

	frame := func(sp uint16) *packet.Frame {
		b := packet.NewBuffer(64)
		udp := packet.UDP{SrcPort: sp, DstPort: 80}
		udp.SerializeTo(b)
		ip := packet.IPv4{TTL: 4, Protocol: packet.ProtoUDP,
			Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 100}}
		ip.SerializeTo(b)
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(b)
		var f packet.Frame
		if err := packet.Decode(b.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		return &f
	}
	f := frame(1234)
	b1, ok := lb.pick(f)
	if !ok {
		t.Fatal("no backend")
	}
	// Record a decision; subsequent picks for the same flow are sticky.
	var key packet.FlowKey
	key.Extract(f)
	lb.decisions[key] = b1
	for i := 0; i < 5; i++ {
		if got, _ := lb.pick(f); got != b1 {
			t.Fatal("pick not sticky")
		}
	}
	// Backend removed from pool: flow re-shards.
	var other packet.IPv4Addr
	if b1 == (packet.IPv4Addr{10, 0, 0, 11}) {
		other = packet.IPv4Addr{10, 0, 0, 12}
	} else {
		other = packet.IPv4Addr{10, 0, 0, 11}
	}
	lb.SetBackends(other)
	if got, _ := lb.pick(f); got != other {
		t.Fatalf("pick after pool change = %v, want %v", got, other)
	}
	// Distinct flows spread across a 2-backend pool.
	lb.SetBackends(packet.IPv4Addr{10, 0, 0, 11}, packet.IPv4Addr{10, 0, 0, 12})
	seen := map[packet.IPv4Addr]int{}
	for sp := uint16(1); sp <= 64; sp++ {
		got, _ := lb.pick(frame(sp))
		seen[got]++
	}
	if len(seen) != 2 {
		t.Fatalf("spread = %v", seen)
	}
	// Empty pool: no pick.
	lb.SetBackends()
	if _, ok := lb.pick(f); ok {
		t.Fatal("pick from empty pool")
	}
}

// TestLoadBalancerReleasesBufferLast pins the order of the NAT rule
// pair on the wire: the FlowMod that carries the packet-in's BufferID
// releases the buffered request when the switch installs it, so every
// rule the reply needs must already be ahead of it in the batch.
func TestLoadBalancerReleasesBufferLast(t *testing.T) {
	vip, backend, client := packet.IPv4Addr{10, 0, 0, 100}, packet.IPv4Addr{10, 0, 0, 11}, packet.IPv4Addr{10, 0, 0, 1}
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	ctl.Use(NewLoadBalancer(vip, backend))
	channel := netem.NewChannel(ctl.Serve)
	t.Cleanup(func() { channel.Close() })
	var mu sync.Mutex
	var buffers []uint32 // BufferID of each FlowMod, in wire order
	channel.SetFlowModPolicy(func(fm *zof.FlowMod) (netem.FlowModDecision, uint16) {
		mu.Lock()
		buffers = append(buffers, fm.BufferID)
		mu.Unlock()
		return netem.FlowModPass, 0
	})
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "client", 1000)
	sw.AddPort(2, "backend", 1000)
	conn, err := channel.Dial()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Attach(sw, conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dp.Close() })
	if err := ctl.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// The backend announces itself so the NIB can place it.
	sw.HandleFrame(2, arpFrame(packet.MAC{2, 0, 0, 0, 0, 11}, backend, client))
	waitCond(t, 2*time.Second, func() bool { _, ok := ctl.NIB().HostByIP(backend); return ok })

	b := packet.NewBuffer(64)
	b.AppendBytes([]byte("request"))
	udp := packet.UDP{SrcPort: 4242, DstPort: 80}
	udp.SerializeToWithChecksum(b, client, vip)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: client, Dst: vip}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 100}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	sw.HandleFrame(1, b.Bytes())
	waitCond(t, 2*time.Second, func() bool { return sw.FlowCount() == 2 })

	mu.Lock()
	defer mu.Unlock()
	if len(buffers) != 2 {
		t.Fatalf("VIP packet-in produced %d FlowMods, want the NAT pair", len(buffers))
	}
	if buffers[0] != zof.NoBuffer || buffers[1] == zof.NoBuffer {
		t.Fatalf("BufferIDs in wire order = %#x: the buffer-releasing rule must be the last of the batch", buffers)
	}
}

func TestStatsMonitorRates(t *testing.T) {
	mon := NewStatsMonitor()
	ctl, sws := harness(t, 1, mon)
	out, _ := sws[0].Port(2)
	out.SetTx(func([]byte) {})
	// Install a flow and push traffic through port 2.
	sws[0].Process(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 1, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}, 1, func(zof.Message, uint32) {})

	if err := mon.CollectOnce(ctl); err != nil {
		t.Fatal(err)
	}
	frame := arpFrame(packet.MAC{2, 1}, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2})
	for i := 0; i < 100; i++ {
		sws[0].HandleFrame(1, frame)
	}
	time.Sleep(20 * time.Millisecond)
	if err := mon.CollectOnce(ctl); err != nil {
		t.Fatal(err)
	}
	sample, ok := mon.Port(1, 2)
	if !ok {
		t.Fatal("no sample")
	}
	if sample.Stats.TxPackets != 100 {
		t.Fatalf("tx packets = %d", sample.Stats.TxPackets)
	}
	if sample.TxBps <= 0 {
		t.Fatalf("tx rate = %v", sample.TxBps)
	}
	if mon.TotalTxBytes() == 0 {
		t.Fatal("total bytes zero")
	}
}

type probeApp struct {
	seen atomicCounter
}

func (p *probeApp) Name() string { return "probe" }
func (p *probeApp) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	p.seen.Add(1)
	return true
}

// atomicCounter is a tiny test helper.
type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (a *atomicCounter) Add(d int) {
	a.mu.Lock()
	a.n += d
	a.mu.Unlock()
}
func (a *atomicCounter) Load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}
