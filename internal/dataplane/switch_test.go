package dataplane

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

var testClockBase = time.Unix(5000, 0)

// capture collects frames transmitted out a port.
type capture struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *capture) tx(data []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), data...))
	c.mu.Unlock()
}

func (c *capture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *capture) last(t *testing.T) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		t.Fatal("no frames captured")
	}
	return c.frames[len(c.frames)-1]
}

// testSwitch builds a 3-port switch with captures on every port.
func testSwitch(t *testing.T, cfg Config) (*Switch, map[uint32]*capture) {
	t.Helper()
	if cfg.DPID == 0 {
		cfg.DPID = 42
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return testClockBase }
	}
	sw := NewSwitch(cfg)
	caps := map[uint32]*capture{}
	for no := uint32(1); no <= 3; no++ {
		c := &capture{}
		caps[no] = c
		sw.AddPort(no, "", 1000).SetTx(c.tx)
	}
	return sw, caps
}

// udpFrame builds a frame src -> dst.
func udpFrame(t testing.TB, srcIP, dstIP packet.IPv4Addr, sp, dp uint16, payload string) []byte {
	t.Helper()
	b := packet.NewBuffer(64)
	b.AppendBytes([]byte(payload))
	udp := packet.UDP{SrcPort: sp, DstPort: dp}
	udp.SerializeToWithChecksum(b, srcIP, dstIP)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: srcIP, Dst: dstIP}
	ip.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.MACFromUint64(uint64(dstIP.Uint32())),
		Src:       packet.MACFromUint64(uint64(srcIP.Uint32())),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

var (
	hostA = packet.IPv4Addr{10, 0, 0, 1}
	hostB = packet.IPv4Addr{10, 0, 0, 2}
)

func addFlow(t testing.TB, sw *Switch, m zof.Match, prio uint16, acts ...zof.Action) {
	t.Helper()
	var gotErr *zof.Error
	sw.Process(&zof.FlowMod{
		Command: zof.FlowAdd, Match: m, Priority: prio,
		BufferID: zof.NoBuffer, Actions: acts,
	}, 1, func(rep zof.Message, _ uint32) {
		if e, ok := rep.(*zof.Error); ok {
			gotErr = e
		}
	})
	if gotErr != nil {
		t.Fatalf("flow add failed: %v", gotErr.Detail)
	}
}

func TestSwitchForwarding(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	m := zof.MatchAll()
	m.IPDst = hostB
	m.DstPrefix = 32
	addFlow(t, sw, m, 10, zof.Output(2))

	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1000, 2000, "x"))
	if caps[2].count() != 1 || caps[1].count() != 0 || caps[3].count() != 0 {
		t.Fatalf("counts = %d/%d/%d", caps[1].count(), caps[2].count(), caps[3].count())
	}
	// Unmatched traffic dropped (DropOnMiss).
	sw.HandleFrame(1, udpFrame(t, hostB, hostA, 1, 1, "y"))
	if caps[2].count() != 1 {
		t.Fatal("miss was forwarded")
	}
	// Port stats counted.
	p1, _ := sw.Port(1)
	if st := p1.Stats(); st.RxPackets != 2 {
		t.Errorf("rx packets = %d", st.RxPackets)
	}
	p2, _ := sw.Port(2)
	if st := p2.Stats(); st.TxPackets != 1 {
		t.Errorf("tx packets = %d", st.TxPackets)
	}
}

func TestSwitchFloodAndAll(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(zof.PortFlood))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 1, "f"))
	if caps[1].count() != 0 || caps[2].count() != 1 || caps[3].count() != 1 {
		t.Fatalf("flood counts = %d/%d/%d", caps[1].count(), caps[2].count(), caps[3].count())
	}
	// Replace with ALL: ingress port included.
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(zof.PortAll))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 1, "g"))
	if caps[1].count() != 1 || caps[2].count() != 2 || caps[3].count() != 2 {
		t.Fatalf("all counts = %d/%d/%d", caps[1].count(), caps[2].count(), caps[3].count())
	}
}

func TestSwitchDownPortDropsTraffic(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	sw.SetPortDown(2, true)
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 1, "x"))
	if caps[2].count() != 0 {
		t.Fatal("down port transmitted")
	}
	p2, _ := sw.Port(2)
	if p2.Stats().TxDropped != 1 {
		t.Errorf("txDropped = %d", p2.Stats().TxDropped)
	}
	// Ingress on a down port is dropped too.
	sw.SetPortDown(1, true)
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 1, "x"))
	p1, _ := sw.Port(1)
	if p1.Stats().RxDropped != 1 {
		t.Errorf("rxDropped = %d", p1.Stats().RxDropped)
	}
}

func TestSwitchPacketInAndRelease(t *testing.T) {
	sw, caps := testSwitch(t, Config{})
	var ins []*zof.PacketIn
	sw.SetController(func(m zof.Message) {
		if pi, ok := m.(*zof.PacketIn); ok {
			ins = append(ins, pi)
		}
	})
	frame := udpFrame(t, hostA, hostB, 1000, 2000, "hello")
	sw.HandleFrame(1, frame)
	if len(ins) != 1 {
		t.Fatalf("packet-ins = %d", len(ins))
	}
	pi := ins[0]
	if pi.InPort != 1 || pi.Reason != zof.ReasonNoMatch || int(pi.TotalLen) != len(frame) {
		t.Fatalf("packet-in = %+v", pi)
	}
	if pi.BufferID == zof.NoBuffer {
		t.Fatal("expected buffered packet-in")
	}
	// Install a flow referencing the buffer: the parked packet must be
	// forwarded through the new actions.
	m := zof.ExactMatch(mustDecode(t, frame), 1)
	sw.Process(&zof.FlowMod{
		Command: zof.FlowAdd, Match: m, Priority: 100,
		BufferID: pi.BufferID, Actions: []zof.Action{zof.Output(3)},
	}, 7, func(zof.Message, uint32) {})
	if caps[3].count() != 1 {
		t.Fatalf("buffered packet not released: %d", caps[3].count())
	}
	// Subsequent frames hit the flow directly.
	sw.HandleFrame(1, frame)
	if caps[3].count() != 2 || len(ins) != 1 {
		t.Fatalf("flow not effective: tx=%d ins=%d", caps[3].count(), len(ins))
	}
}

// TestBufferEvictionIsCounted: the buffer ring holds 256 parked
// packets; a 257th packet-in with no verdict in between overwrites the
// first, and that loss is counted, not silent.
func TestBufferEvictionIsCounted(t *testing.T) {
	for _, n := range []int{bufferSlots, bufferSlots + 1} {
		sw, _ := testSwitch(t, Config{})
		var first *zof.PacketIn
		sw.SetController(func(m zof.Message) {
			if pi, ok := m.(*zof.PacketIn); ok && first == nil {
				first = pi
			}
		})
		reg := obs.NewRegistry()
		sw.RegisterMetrics(reg, "dp")
		for i := 0; i < n; i++ {
			sw.HandleFrame(1, udpFrame(t, hostA, hostB, uint16(i), 2000, "parked"))
		}
		evicted := int64(n - bufferSlots)
		if v, ok := reg.Value("dp.buffers.evicted"); !ok || v != evicted {
			t.Errorf("%d packet-ins: buffers.evicted = %d (registered %v), want %d", n, v, ok, evicted)
		}
		if _, _, ok := sw.buffers.take(first.BufferID); ok != (evicted == 0) {
			t.Errorf("%d packet-ins: take of the first buffer id reports %v", n, ok)
		}
	}
}

func mustDecode(t *testing.T, data []byte) *packet.Frame {
	t.Helper()
	var f packet.Frame
	if err := packet.Decode(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestSwitchPacketOut(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	frame := udpFrame(t, hostA, hostB, 1, 2, "po")
	sw.Process(&zof.PacketOut{
		BufferID: zof.NoBuffer, InPort: 1,
		Actions: []zof.Action{zof.Output(zof.PortFlood)},
		Data:    frame,
	}, 9, func(zof.Message, uint32) {})
	if caps[2].count() != 1 || caps[3].count() != 1 || caps[1].count() != 0 {
		t.Fatalf("counts = %d/%d/%d", caps[1].count(), caps[2].count(), caps[3].count())
	}
}

func TestRewriteActions(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	newMAC := packet.MAC{0xde, 0xad, 0, 0, 0, 1}
	newIP := packet.IPv4Addr{192, 168, 9, 9}
	addFlow(t, sw, zof.MatchAll(), 5,
		zof.SetEthDst(newMAC),
		zof.SetIPDst(newIP),
		zof.SetTPDst(8080),
		zof.Output(2),
	)
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1000, 80, "rewrite"))
	out := caps[2].last(t)
	f := mustDecode(t, out)
	if f.Eth.Dst != newMAC {
		t.Errorf("eth dst = %v", f.Eth.Dst)
	}
	if f.IPv4.Dst != newIP {
		t.Errorf("ip dst = %v", f.IPv4.Dst)
	}
	if f.UDP.DstPort != 8080 {
		t.Errorf("udp dst = %d", f.UDP.DstPort)
	}
	// Checksums must be valid after rewrite.
	ipStart := packet.EthernetHeaderLen
	if !f.IPv4.VerifyChecksum(out[ipStart:]) {
		t.Error("IP checksum invalid after rewrite")
	}
	seg := out[ipStart+f.IPv4.HeaderLen() : int(f.IPv4.Length)+ipStart]
	if got := packet.TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, packet.ProtoUDP); got != 0 {
		t.Errorf("UDP checksum residue = %#x", got)
	}
	// Payload intact.
	if string(f.Payload) != "rewrite" {
		t.Errorf("payload = %q", f.Payload)
	}
}

func TestVLANPushStrip(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 5, zof.SetVLAN(42), zof.Output(2))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "tagme"))
	out := caps[2].last(t)
	f := mustDecode(t, out)
	if !f.Has(packet.LayerVLAN) || f.VLAN.VLAN != 42 {
		t.Fatalf("frame not tagged: %+v", f.VLAN)
	}
	if !f.Has(packet.LayerUDP) || string(f.Payload) != "tagme" {
		t.Fatal("inner layers damaged by push")
	}

	// Now strip it through a second switch.
	sw2, caps2 := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw2, zof.MatchAll(), 5, zof.StripVLAN(), zof.Output(3))
	sw2.HandleFrame(1, out)
	out2 := caps2[3].last(t)
	f2 := mustDecode(t, out2)
	if f2.Has(packet.LayerVLAN) {
		t.Fatal("tag survived strip")
	}
	if string(f2.Payload) != "tagme" {
		t.Fatal("payload damaged by strip")
	}
	// Retag an already-tagged frame: in-place TCI rewrite.
	sw3, caps3 := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw3, zof.MatchAll(), 5, zof.SetVLAN(7), zof.Output(2))
	sw3.HandleFrame(1, out)
	f3 := mustDecode(t, caps3[2].last(t))
	if f3.VLAN.VLAN != 7 {
		t.Errorf("retag = %d", f3.VLAN.VLAN)
	}
}

func TestGroupAll(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}},
		{Actions: []zof.Action{zof.SetTPDst(9), zof.Output(3)}},
	}})
	addFlow(t, sw, zof.MatchAll(), 5, zof.Group(1))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "multi"))
	if caps[2].count() != 1 || caps[3].count() != 1 {
		t.Fatalf("counts = %d/%d", caps[2].count(), caps[3].count())
	}
	// Bucket rewrite must not leak to the other bucket's copy.
	f2 := mustDecode(t, caps[2].last(t))
	f3 := mustDecode(t, caps[3].last(t))
	if f2.UDP.DstPort != 2 || f3.UDP.DstPort != 9 {
		t.Errorf("ports = %d/%d", f2.UDP.DstPort, f3.UDP.DstPort)
	}
}

func TestGroupSelectSticky(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupSelect, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}},
		{Actions: []zof.Action{zof.Output(3)}},
	}})
	addFlow(t, sw, zof.MatchAll(), 5, zof.Group(1))
	// The same flow always picks the same bucket.
	for i := 0; i < 5; i++ {
		sw.HandleFrame(1, udpFrame(t, hostA, hostB, 777, 888, "s"))
	}
	if !(caps[2].count() == 5 && caps[3].count() == 0) &&
		!(caps[2].count() == 0 && caps[3].count() == 5) {
		t.Fatalf("select not sticky: %d/%d", caps[2].count(), caps[3].count())
	}
	// Different flows spread across buckets (statistically certain with
	// 64 distinct flows).
	for i := 0; i < 64; i++ {
		sw.HandleFrame(1, udpFrame(t, hostA, hostB, uint16(i+1), 9, "d"))
	}
	if caps[2].count() == 0 || caps[3].count() == 0 {
		t.Errorf("select never used one bucket: %d/%d", caps[2].count(), caps[3].count())
	}
}

func TestGroupFastFailover(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupFastFailover, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}, WatchPort: 2},
		{Actions: []zof.Action{zof.Output(3)}, WatchPort: 3},
	}})
	addFlow(t, sw, zof.MatchAll(), 5, zof.Group(1))
	frame := udpFrame(t, hostA, hostB, 1, 2, "ff")
	sw.HandleFrame(1, frame)
	if caps[2].count() != 1 || caps[3].count() != 0 {
		t.Fatalf("primary not used: %d/%d", caps[2].count(), caps[3].count())
	}
	// Fail the primary: traffic shifts without any table change.
	sw.SetPortDown(2, true)
	sw.HandleFrame(1, frame)
	if caps[3].count() != 1 {
		t.Fatalf("failover did not happen: %d/%d", caps[2].count(), caps[3].count())
	}
	// Fail both: drop.
	sw.SetPortDown(3, true)
	sw.HandleFrame(1, frame)
	if caps[2].count() != 1 || caps[3].count() != 1 {
		t.Fatal("frame leaked with all watch ports down")
	}
}

func TestFlowTimeoutsEmitRemoved(t *testing.T) {
	now := testClockBase
	sw, _ := testSwitch(t, Config{Clock: func() time.Time { return now }})
	var removed []*zof.FlowRemoved
	sw.SetController(func(m zof.Message) {
		if fr, ok := m.(*zof.FlowRemoved); ok {
			removed = append(removed, fr)
		}
	})
	m := zof.MatchAll()
	m.IPDst = hostB
	m.DstPrefix = 32
	sw.Process(&zof.FlowMod{
		Command: zof.FlowAdd, Match: m, Priority: 7, BufferID: zof.NoBuffer,
		IdleTimeout: 5, Flags: zof.FlagSendFlowRemoved,
		Actions: []zof.Action{zof.Output(2)},
	}, 1, func(zof.Message, uint32) {})

	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "keepalive"))
	now = now.Add(3 * time.Second)
	sw.Tick(now)
	if len(removed) != 0 {
		t.Fatal("premature removal")
	}
	now = now.Add(6 * time.Second)
	sw.Tick(now)
	if len(removed) != 1 {
		t.Fatalf("removed = %d", len(removed))
	}
	fr := removed[0]
	if fr.Reason != zof.RemovedIdleTimeout || fr.Priority != 7 || fr.PacketCount != 1 {
		t.Errorf("flow removed = %+v", fr)
	}
	if sw.FlowCount() != 0 {
		t.Errorf("flows left = %d", sw.FlowCount())
	}
}

func TestStatsReplies(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	m := zof.MatchAll()
	m.IPDst = hostB
	m.DstPrefix = 32
	addFlow(t, sw, m, 10, zof.Output(2))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "statd"))

	var rep *zof.StatsReply
	collect := func(r zof.Message, _ uint32) { rep = r.(*zof.StatsReply) }

	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 1, collect)
	if len(rep.Flows) != 1 || rep.Flows[0].PacketCount != 1 || rep.Flows[0].Priority != 10 {
		t.Fatalf("flow stats = %+v", rep.Flows)
	}
	sw.Process(&zof.StatsRequest{Kind: zof.StatsAggregate, TableID: 0xff, Match: zof.MatchAll()}, 2, collect)
	if rep.Aggregate.FlowCount != 1 || rep.Aggregate.PacketCount != 1 {
		t.Fatalf("aggregate = %+v", rep.Aggregate)
	}
	sw.Process(&zof.StatsRequest{Kind: zof.StatsPort, PortNo: zof.PortNone}, 3, collect)
	if len(rep.Ports) != 3 {
		t.Fatalf("port stats = %d", len(rep.Ports))
	}
	if rep.Ports[0].PortNo != 1 || rep.Ports[1].PortNo != 2 {
		t.Error("port stats not sorted")
	}
	sw.Process(&zof.StatsRequest{Kind: zof.StatsTable}, 4, collect)
	if len(rep.Tables) != 1 || rep.Tables[0].ActiveCount != 1 {
		t.Fatalf("table stats = %+v", rep.Tables)
	}
	if rep.Tables[0].LookupCount == 0 || rep.Tables[0].MatchedCount == 0 {
		t.Error("lookup counters zero")
	}
}

func TestMicroCacheCoherence(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 5, 6, "cache")
	for i := 0; i < 3; i++ {
		sw.HandleFrame(1, frame) // warms the cache
	}
	if caps[2].count() != 3 {
		t.Fatalf("pre-change count = %d", caps[2].count())
	}
	// Higher-priority rule diverts the same flow; the cache must not
	// serve the stale decision.
	addFlow(t, sw, zof.MatchAll(), 99, zof.Output(3))
	sw.HandleFrame(1, frame)
	if caps[3].count() != 1 || caps[2].count() != 3 {
		t.Fatalf("after change: p2=%d p3=%d", caps[2].count(), caps[3].count())
	}
}

func TestMultiTableResubmit(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true, NumTables: 2})
	// Table 0: tag and resubmit. Table 1: forward.
	addFlow0 := func(tableID uint8, m zof.Match, prio uint16, acts ...zof.Action) {
		sw.Process(&zof.FlowMod{Command: zof.FlowAdd, TableID: tableID, Match: m,
			Priority: prio, BufferID: zof.NoBuffer, Actions: acts},
			1, func(rep zof.Message, _ uint32) {
				if e, ok := rep.(*zof.Error); ok {
					t.Fatalf("flowmod: %s", e.Detail)
				}
			})
	}
	addFlow0(0, zof.MatchAll(), 5, zof.SetTPDst(9999), zof.Output(zof.PortTable))
	addFlow0(1, zof.MatchAll(), 5, zof.Output(3))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "2tab"))
	if caps[3].count() != 1 {
		t.Fatalf("resubmit output = %d", caps[3].count())
	}
	f := mustDecode(t, caps[3].last(t))
	if f.UDP.DstPort != 9999 {
		t.Errorf("rewrite before resubmit lost: %d", f.UDP.DstPort)
	}
	// FlowMod to a nonexistent table errors.
	var gotErr bool
	sw.Process(&zof.FlowMod{Command: zof.FlowAdd, TableID: 9, Match: zof.MatchAll(),
		BufferID: zof.NoBuffer}, 2, func(rep zof.Message, _ uint32) {
		_, gotErr = rep.(*zof.Error)
	})
	if !gotErr {
		t.Error("bad table accepted")
	}
}
