package apps

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

func udpFrame(src, dst packet.MAC, srcIP, dstIP packet.IPv4Addr) []byte {
	b := packet.NewBuffer(64)
	udp := packet.UDP{SrcPort: 1, DstPort: 2}
	udp.SerializeTo(b)
	ip := packet.IPv4{TTL: 4, Protocol: packet.ProtoUDP, Src: srcIP, Dst: dstIP}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: dst, Src: src, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// connectSwitch attaches a software switch with ports 1..ports over a
// stream from channel.
func connectSwitch(t *testing.T, channel *netem.Channel, dpid uint64, ports uint32) (*dataplane.Switch, *dataplane.Datapath) {
	t.Helper()
	sw := dataplane.NewSwitch(dataplane.Config{DPID: dpid})
	for p := uint32(1); p <= ports; p++ {
		sw.AddPort(p, "p", 1000)
	}
	conn, err := channel.Dial()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Attach(sw, conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dp.Close() })
	return sw, dp
}

func metric(t *testing.T, ctl *controller.Controller, name string) int64 {
	t.Helper()
	v, ok := ctl.Metrics().Value(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestFloodPortsSurviveLowestSwitchLeaving is the ghost-root
// regression: the flood tree used to be rooted at the lowest node the
// graph had ever held, and a departed switch stayed in the graph as an
// island — so once switch 1 left, the tree was empty and no
// inter-switch port anywhere was flood-safe.
func TestFloodPortsSurviveLowestSwitchLeaving(t *testing.T) {
	ctl, _ := harness(t, 0)
	nib := ctl.NIB()
	for dpid := uint64(1); dpid <= 3; dpid++ {
		nib.ApplySwitch(zof.FeaturesReply{DPID: dpid, Ports: []zof.PortInfo{{No: 1}, {No: 2}, {No: 3}}})
	}
	nib.ApplyLink(1, 2, 2, 1)
	nib.ApplyLink(2, 2, 3, 1)
	flood := func() []uint32 {
		ports := FloodPorts(ctl, 2)
		slices.Sort(ports)
		return ports
	}
	if got := flood(); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Fatalf("flood ports of 2 on the line = %v, want [1 2 3]", got)
	}
	nib.ApplyRemoveSwitch(1)
	// Port 1 faced the departed switch (sticky infra, no link); port 2
	// still leads to switch 3 and port 3 to hosts.
	if got := flood(); !slices.Equal(got, []uint32{2, 3}) {
		t.Fatalf("flood ports of 2 after switch 1 left = %v, want [2 3]", got)
	}
}

// TestRoutingFenceFailureInstallsNothing kills a downstream hop's
// session between its batch and its barrier reply: no ingress rule
// lands, the pair is not recorded, and the counter says so.
func TestRoutingFenceFailureInstallsNothing(t *testing.T) {
	r := NewRouting()
	ctl, _ := harness(t, 0, r)
	direct, faulty := netem.NewChannel(ctl.Serve), netem.NewChannel(ctl.Serve)
	t.Cleanup(func() { faulty.Close() })
	sw1, _ := connectSwitch(t, direct, 1, 2)
	sw2, _ := connectSwitch(t, direct, 2, 2)
	sw3, _ := connectSwitch(t, faulty, 3, 2) // the hop that will die
	if err := ctl.WaitForSwitches(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Line 1-2-3; A on 1:1, B on 3:2.
	nib := ctl.NIB()
	nib.ApplyLink(1, 2, 2, 1)
	nib.ApplyLink(2, 2, 3, 1)
	macA, macB := packet.MAC{2, 0, 0, 0, 0, 0xa}, packet.MAC{2, 0, 0, 0, 0, 0xb}
	ipA, ipB := packet.IPv4Addr{10, 0, 0, 0xa}, packet.IPv4Addr{10, 0, 0, 0xb}
	nib.ApplyHost(controller.HostInfo{MAC: macB, IP: ipB, DPID: 3, Port: 2})

	faulty.Blackhole(true) // switch 3's batch leaves the controller and vanishes
	sw1.HandleFrame(1, udpFrame(macA, macB, ipA, ipB))
	// Switch 2 holding its rule means the fence is out on both hops.
	waitCond(t, 2*time.Second, func() bool { return sw2.FlowCount() == 1 })
	if sw1.FlowCount() != 0 {
		t.Fatal("ingress rule installed before the fence came back")
	}
	faulty.DropConnections()
	waitCond(t, 2*time.Second, func() bool { return metric(t, ctl, "apps.spf-routing.fence_failed") == 1 })

	sc1, _ := ctl.Switch(1)
	if err := sc1.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sw1.FlowCount() != 0 || sw3.FlowCount() != 0 {
		t.Errorf("after a failed fence: %d rules on the ingress switch, %d on the dead hop", sw1.FlowCount(), sw3.FlowCount())
	}
	if routes := metric(t, ctl, "apps.spf-routing.routes"); routes != 0 {
		t.Errorf("failed set-up recorded: routes=%d", routes)
	}
}

// TestRoutingRejectedHopInstallsNothing: a downstream hop that answers
// its FlowMod with an Error fails the set-up like a dead one — the
// rejection rides the hop's fence, so no ingress rule lands, nothing is
// recorded as routed, and the Error is not left over as an unclaimed
// async error.
func TestRoutingRejectedHopInstallsNothing(t *testing.T) {
	r := NewRouting()
	ctl, _ := harness(t, 0, r)
	direct, faulty := netem.NewChannel(ctl.Serve), netem.NewChannel(ctl.Serve)
	t.Cleanup(func() { faulty.Close() })
	faulty.SetFlowModPolicy(func(*zof.FlowMod) (netem.FlowModDecision, uint16) {
		return netem.FlowModReject, zof.ErrCodeTableFull
	})
	sw1, _ := connectSwitch(t, direct, 1, 2)
	connectSwitch(t, direct, 2, 2)
	sw3, _ := connectSwitch(t, faulty, 3, 2) // the hop that refuses
	if err := ctl.WaitForSwitches(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Line 1-2-3; A on 1:1, B on 3:2.
	nib := ctl.NIB()
	nib.ApplyLink(1, 2, 2, 1)
	nib.ApplyLink(2, 2, 3, 1)
	macA, macB := packet.MAC{2, 0, 0, 0, 0, 0xa}, packet.MAC{2, 0, 0, 0, 0, 0xb}
	ipA, ipB := packet.IPv4Addr{10, 0, 0, 0xa}, packet.IPv4Addr{10, 0, 0, 0xb}
	nib.ApplyHost(controller.HostInfo{MAC: macB, IP: ipB, DPID: 3, Port: 2})

	sw1.HandleFrame(1, udpFrame(macA, macB, ipA, ipB))
	waitCond(t, 2*time.Second, func() bool {
		return metric(t, ctl, "apps.spf-routing.fence_failed")+metric(t, ctl, "apps.spf-routing.routes") == 1
	})
	sc1, _ := ctl.Switch(1)
	if err := sc1.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if failed := metric(t, ctl, "apps.spf-routing.fence_failed"); failed != 1 {
		t.Errorf("fence_failed = %d, want 1", failed)
	}
	if routes := metric(t, ctl, "apps.spf-routing.routes"); routes != 0 {
		t.Errorf("rejected set-up recorded: routes=%d", routes)
	}
	if sw1.FlowCount() != 0 || sw3.FlowCount() != 0 {
		t.Errorf("after a rejected hop: %d rules on the ingress switch, %d on the refusing hop", sw1.FlowCount(), sw3.FlowCount())
	}
	if n := metric(t, ctl, "controller.async_errors"); n != 0 {
		t.Errorf("the hop's rejection surfaced as %d unclaimed async errors", n)
	}
}

// TestRoutingFenceConcurrentClose: packet-ins on four switches — so on
// every dispatch shard — fence through one downstream connection while
// it closes. Every packet-in ends exactly one way (routed, fence
// failed, or passed on once the NIB forgot the host) and nothing
// races.
func TestRoutingFenceConcurrentClose(t *testing.T) {
	r, probe := NewRouting(), &probeApp{}
	ctl, _ := harness(t, 0, r, probe)
	const ingress, each = 4, 300
	direct := netem.NewChannel(ctl.Serve)
	for dpid := uint64(1); dpid <= ingress; dpid++ {
		connectSwitch(t, direct, dpid, 2)
	}
	_, hub := connectSwitch(t, direct, 9, ingress+1)
	if err := ctl.WaitForSwitches(ingress+1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	nib := ctl.NIB()
	for dpid := uint64(1); dpid <= ingress; dpid++ {
		nib.ApplyLink(dpid, 2, 9, uint32(dpid))
	}
	macB, ipB := packet.MAC{2, 0, 0, 0, 0, 0xb}, packet.IPv4Addr{10, 0, 0, 0xb}
	nib.ApplyHost(controller.HostInfo{MAC: macB, IP: ipB, DPID: 9, Port: ingress + 1})

	var wg sync.WaitGroup
	for dpid := uint64(1); dpid <= ingress; dpid++ {
		wg.Add(1)
		go func(dpid uint64) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				src := packet.MAC{2, 1, byte(dpid), 0, byte(i >> 8), byte(i)}
				ctl.InjectEvent(controller.PacketInEvent{DPID: dpid, Msg: zof.PacketIn{
					BufferID: zof.NoBuffer, InPort: 1,
					Data: udpFrame(src, macB, packet.IPv4Addr{10, 1, byte(dpid), byte(i)}, ipB),
				}})
				if dpid == 1 && i == each/2 {
					hub.Close()
				}
			}
		}(dpid)
	}
	wg.Wait()
	ended := func() int64 {
		return metric(t, ctl, "apps.spf-routing.routes") + metric(t, ctl, "apps.spf-routing.fence_failed") + int64(probe.seen.Load())
	}
	waitCond(t, 5*time.Second, func() bool { return ended() >= ingress*each })
	if got := ended(); got != ingress*each || metric(t, ctl, "controller.dispatch.dropped") != 0 {
		t.Errorf("%d packet-ins ended %d ways", ingress*each, got)
	}
}

// stubSwitch completes the handshake as dpid and then only answers
// barriers: a connection for the routing handler to write to, with no
// datapath behind it.
func stubSwitch(tb testing.TB, addr string, dpid uint64) {
	tb.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	conn := zof.NewConn(raw)
	tb.Cleanup(func() { conn.Close() })
	if err := conn.Handshake(); err != nil {
		tb.Fatal(err)
	}
	go func() {
		for {
			msg, h, err := conn.Receive()
			if err != nil {
				return
			}
			switch msg.(type) {
			case *zof.FeaturesRequest:
				_ = conn.SendXID(&zof.FeaturesReply{DPID: dpid, NumTables: 1}, h.XID)
			case *zof.BarrierRequest:
				_ = conn.SendXID(&zof.BarrierReply{}, h.XID)
			}
		}
	}()
}

// BenchmarkRoutingPacketIn times the routing handler on a k=4 fat-tree
// NIB — edge to far edge, five hops, four fenced — against stub
// connections, so ns/op and allocs/op are the controller's share of a
// flow set-up: path lookup, five FlowMods, four barriers and their
// replies. At most 64 set-ups are in flight.
func BenchmarkRoutingPacketIn(b *testing.B) {
	r := NewRouting()
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ctl.Close() })
	ctl.Use(r)
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range g.Nodes() {
		stubSwitch(b, ctl.Addr(), uint64(n))
	}
	if err := ctl.WaitForSwitches(g.NumNodes(), 5*time.Second); err != nil {
		b.Fatal(err)
	}
	nib := ctl.NIB()
	for _, l := range g.Links() {
		nib.ApplyLink(uint64(l.A), l.APort, uint64(l.B), l.BPort)
	}
	macB, ipB := packet.MAC{2, 0, 0, 0, 0, 0xb}, packet.IPv4Addr{10, 0, 0, 0xb}
	nib.ApplyHost(controller.HostInfo{MAC: macB, IP: ipB, DPID: uint64(edges[len(edges)-1]), Port: 9})
	ev := controller.PacketInEvent{DPID: uint64(edges[0]), Msg: zof.PacketIn{BufferID: zof.NoBuffer, InPort: 9,
		Data: udpFrame(packet.MAC{2, 0, 0, 0, 0, 0xa}, macB, packet.IPv4Addr{10, 0, 0, 0xa}, ipB)}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.PacketIn(ctl, ev) {
			b.Fatal("packet-in not routed")
		}
		for uint64(i+1)-r.routes.Value() > 64 {
			runtime.Gosched()
		}
	}
	for r.routes.Value() < uint64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if r.fenceFailed.Value() != 0 {
		b.Fatalf("%d fences failed", r.fenceFailed.Value())
	}
}
