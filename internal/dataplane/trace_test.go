package dataplane

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/zof"
)

// deliveredPorts reduces a trace to the set of ports the frame would
// actually have left on.
func deliveredPorts(tr *PacketTrace) map[uint32]int {
	out := map[uint32]int{}
	for _, o := range tr.Outputs {
		if !o.Down && !o.Missing {
			out[o.Port]++
		}
	}
	return out
}

// assertParity traces the frame, then runs it live, and fails unless
// the trace predicted exactly the ports the live pipeline used.
func assertParity(t *testing.T, sw *Switch, caps map[uint32]*capture, inPort uint32, frame []byte) *PacketTrace {
	t.Helper()
	before := map[uint32]int{}
	for no, c := range caps {
		before[no] = c.count()
	}
	tr := sw.Trace(inPort, frame)
	// Tracing alone must transmit nothing.
	for no, c := range caps {
		if c.count() != before[no] {
			t.Fatalf("Trace transmitted on port %d", no)
		}
	}
	sw.HandleFrame(inPort, frame)
	want := deliveredPorts(tr)
	for no, c := range caps {
		if got := c.count() - before[no]; got != want[no] {
			t.Fatalf("port %d: live sent %d, trace predicted %d (trace: %+v)",
				no, got, want[no], tr)
		}
	}
	return tr
}

func TestTraceParityUnicast(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	m := zof.MatchAll()
	m.IPDst = hostB
	m.DstPrefix = 32
	addFlow(t, sw, m, 10, zof.Output(2))

	tr := assertParity(t, sw, caps, 1, udpFrame(t, hostA, hostB, 1000, 2000, "x"))
	if len(tr.Steps) != 1 || !tr.Steps[0].Matched || tr.Steps[0].Priority != 10 {
		t.Fatalf("steps = %+v", tr.Steps)
	}
	if tr.Verdict != "forwarded: 1 port(s)" {
		t.Errorf("verdict = %q", tr.Verdict)
	}
	if tr.Frame == "" || tr.DPID != 42 || tr.InPort != 1 {
		t.Errorf("trace header = %+v", tr)
	}

	// A flow the rule does not cover misses; DropOnMiss means drop.
	miss := sw.Trace(1, udpFrame(t, hostB, hostA, 1, 1, "y"))
	if miss.Verdict != "dropped: table miss" || len(miss.Steps) != 1 || miss.Steps[0].Matched {
		t.Errorf("miss trace = %+v", miss)
	}
}

func TestTraceParityFlood(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(zof.PortFlood))
	tr := assertParity(t, sw, caps, 1, udpFrame(t, hostA, hostB, 7, 8, "fl"))
	got := deliveredPorts(tr)
	if len(got) != 2 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("flood outputs = %+v", tr.Outputs)
	}
	for _, o := range tr.Outputs {
		if o.Kind != "flood" {
			t.Errorf("output kind = %q", o.Kind)
		}
	}
}

func TestTraceParityMultiTable(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true, NumTables: 2})
	addTableFlow := func(tableID uint8, prio uint16, acts ...zof.Action) {
		sw.Process(&zof.FlowMod{Command: zof.FlowAdd, TableID: tableID, Match: zof.MatchAll(),
			Priority: prio, BufferID: zof.NoBuffer, Actions: acts},
			1, func(rep zof.Message, _ uint32) {
				if e, ok := rep.(*zof.Error); ok {
					t.Fatalf("flowmod: %s", e.Detail)
				}
			})
	}
	// Table 0 rewrites the destination port before resubmitting, so
	// table 1's match sees the rewritten header — the trace must follow
	// the same rewritten view.
	addTableFlow(0, 5, zof.SetTPDst(9999), zof.Output(zof.PortTable))
	addTableFlow(1, 5, zof.Output(3))

	tr := assertParity(t, sw, caps, 1, udpFrame(t, hostA, hostB, 1, 2, "2tab"))
	if len(tr.Steps) != 2 {
		t.Fatalf("steps = %+v", tr.Steps)
	}
	if !tr.Steps[0].Resubmit || tr.Steps[0].Table != 0 || !tr.Steps[0].Matched {
		t.Errorf("step 0 = %+v", tr.Steps[0])
	}
	if tr.Steps[1].Table != 1 || !tr.Steps[1].Matched || tr.Steps[1].Resubmit {
		t.Errorf("step 1 = %+v", tr.Steps[1])
	}
	if got := deliveredPorts(tr); got[3] != 1 {
		t.Errorf("outputs = %+v", tr.Outputs)
	}
}

func TestTraceParityGroupSelect(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupSelect, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}},
		{Actions: []zof.Action{zof.Output(3)}},
	}})
	addFlow(t, sw, zof.MatchAll(), 5, zof.Group(1))

	// Several distinct flows: each must trace to the same bucket the
	// live select hash picks.
	for i := 0; i < 16; i++ {
		tr := assertParity(t, sw, caps, 1, udpFrame(t, hostA, hostB, uint16(100+i), 9, "sel"))
		if len(tr.Groups) != 1 {
			t.Fatalf("groups = %+v", tr.Groups)
		}
		g := tr.Groups[0]
		if g.ID != 1 || g.Type != "select" || g.Buckets != 2 || len(g.Chosen) != 1 {
			t.Fatalf("group record = %+v", g)
		}
	}
}

func TestTraceParityFastFailover(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupFastFailover, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}, WatchPort: 2},
		{Actions: []zof.Action{zof.Output(3)}, WatchPort: 3},
	}})
	addFlow(t, sw, zof.MatchAll(), 5, zof.Group(1))
	frame := udpFrame(t, hostA, hostB, 1, 2, "ff")

	tr := assertParity(t, sw, caps, 1, frame)
	if len(tr.Groups) != 1 || len(tr.Groups[0].Chosen) != 1 || tr.Groups[0].Chosen[0] != 0 {
		t.Fatalf("primary trace = %+v", tr.Groups)
	}

	sw.SetPortDown(2, true)
	tr = assertParity(t, sw, caps, 1, frame)
	if tr.Groups[0].Chosen[0] != 1 || tr.Groups[0].Type != "fast_failover" {
		t.Fatalf("failover trace = %+v", tr.Groups)
	}

	sw.SetPortDown(3, true)
	tr = assertParity(t, sw, caps, 1, frame)
	if len(tr.Groups[0].Chosen) != 0 || tr.Verdict != "dropped: no output action" {
		t.Fatalf("all-down trace = %+v verdict %q", tr.Groups, tr.Verdict)
	}
}

func TestTraceMissPacketIn(t *testing.T) {
	sw, _ := testSwitch(t, Config{})
	var packetIns int
	sw.AddControllerSink(func(m zof.Message) {
		if _, ok := m.(*zof.PacketIn); ok {
			packetIns++
		}
	})
	frame := udpFrame(t, hostA, hostB, 1, 2, "pin")
	tr := sw.Trace(1, frame)
	if tr.Verdict != "packet-in: table miss" {
		t.Fatalf("verdict = %q", tr.Verdict)
	}
	if len(tr.PacketIns) != 1 || tr.PacketIns[0].Reason != "no_match" || tr.PacketIns[0].Table != 0 {
		t.Fatalf("packet-ins = %+v", tr.PacketIns)
	}
	if packetIns != 0 || sw.PacketIns.Load() != 0 {
		t.Fatal("Trace raised a real packet-in")
	}
	sw.HandleFrame(1, frame)
	if packetIns != 1 {
		t.Fatalf("live packet-ins = %d", packetIns)
	}
}

// TestTraceLeavesNoFootprint verifies the explain-mode contract: no
// flow, table, cache, port or packet-in statistic moves when tracing.
func TestTraceLeavesNoFootprint(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 5, 6, "quiet")

	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	before := reg.Snapshot()
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)
	rxBefore, txBefore := p1.Stats(), p2.Stats()

	for i := 0; i < 10; i++ {
		sw.Trace(1, frame)
	}

	after := reg.Snapshot()
	for name, b := range before {
		if a := after[name]; a.Value != b.Value {
			t.Errorf("%s moved: %d -> %d", name, b.Value, a.Value)
		}
	}
	if p1.Stats() != rxBefore || p2.Stats() != txBefore {
		t.Error("port counters moved during trace")
	}

	var rep *zof.StatsReply
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()},
		1, func(r zof.Message, _ uint32) { rep = r.(*zof.StatsReply) })
	if rep.Flows[0].PacketCount != 0 {
		t.Errorf("flow packet count = %d after trace-only traffic", rep.Flows[0].PacketCount)
	}

	// Bursted traffic does not change the contract: live bursts move
	// exactly their own accounting, traces on top of them still move
	// nothing, and the trace's explanation matches what the burst did.
	burst := make([][]byte, 16)
	for i := range burst {
		burst[i] = frame
	}
	sw.HandleBurst(1, burst)
	midBurst := reg.Snapshot()
	p1AfterBurst, p2AfterBurst := p1.Stats(), p2.Stats()
	for i := 0; i < 10; i++ {
		tr := sw.Trace(1, frame)
		if len(tr.Steps) != 1 || !tr.Steps[0].Matched {
			t.Fatalf("trace during burst traffic lost parity: %+v", tr.Steps)
		}
	}
	final := reg.Snapshot()
	for name, m := range midBurst {
		if a := final[name]; a.Value != m.Value {
			t.Errorf("%s moved during bursted tracing: %d -> %d", name, m.Value, a.Value)
		}
	}
	if p1.Stats() != p1AfterBurst || p2.Stats() != p2AfterBurst {
		t.Error("port counters moved during bursted tracing")
	}
}

func TestTraceBadInputs(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	if tr := sw.Trace(99, []byte{1, 2, 3}); tr.Verdict != "dropped: no such port" {
		t.Errorf("unknown port verdict = %q", tr.Verdict)
	}
	sw.SetPortDown(1, true)
	if tr := sw.Trace(1, udpFrame(t, hostA, hostB, 1, 2, "z")); tr.Verdict != "dropped: in port down" {
		t.Errorf("down port verdict = %q", tr.Verdict)
	}
	sw.SetPortDown(1, false)
	if tr := sw.Trace(1, []byte{0xde, 0xad}); tr.Verdict != "dropped: malformed frame" {
		t.Errorf("malformed verdict = %q", tr.Verdict)
	}
}

func TestSwitchRegisterMetrics(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true, NumTables: 2})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "m"))

	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	for _, name := range []string{
		"dataplane.42.packet_ins",
		"dataplane.42.flows",
		"dataplane.42.microcache.hits",
		"dataplane.42.microcache.misses",
		"dataplane.42.microcache.flows",
		"dataplane.42.flowtable.0.lookups",
		"dataplane.42.flowtable.0.matches",
		"dataplane.42.flowtable.0.active",
		"dataplane.42.flowtable.1.active",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	if v, _ := reg.Value("dataplane.42.flows"); v != 1 {
		t.Errorf("flows = %d", v)
	}
	if v, _ := reg.Value("dataplane.42.flowtable.0.lookups"); v != 1 {
		t.Errorf("lookups = %d", v)
	}
	// A second mask shape is a second probe per lookup: the gauge moves.
	inPort := zof.MatchAll()
	inPort.Wildcards &^= zof.WInPort
	inPort.InPort = 1
	addFlow(t, sw, inPort, 2, zof.Output(2))
	if v, ok := reg.Value("dataplane.42.flowtable.0.tuples"); !ok || v != 2 {
		t.Errorf("tuples = %d (registered %v), want 2", v, ok)
	}
}
