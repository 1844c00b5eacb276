package dataplane

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/flowtable"
	"repro/internal/packet"
	"repro/internal/zof"
)

// maxControlFrames bounds the messages one input feeds the switch.
const maxControlFrames = 8

// flowModCoverage counts what inputs reached: FlowMods the switch
// refused, and accepted FlowAdds whose rule a frame was classified
// against.
type flowModCoverage struct{ refused, peeked int }

// flowState is everything a refused FlowMod must leave as it was: the
// flow count, every table's entries (identity and order) and the
// parked packets.
type flowState struct {
	count   int
	entries [][]*flowtable.Entry
	nextID  uint32
	slots   []bufferedPacket
}

func stateOf(sw *Switch) flowState {
	st := flowState{count: sw.FlowCount()}
	for _, t := range sw.tables {
		st.entries = append(st.entries, t.Entries())
	}
	sw.buffers.mu.Lock()
	defer sw.buffers.mu.Unlock()
	st.nextID = sw.buffers.nextID
	for _, s := range sw.buffers.slots {
		s.data = slices.Clone(s.data)
		st.slots = append(st.slots, s)
	}
	return st
}

// checkFlowModInput feeds a fresh two-port switch (two tables of four
// rules, one packet parked under buffer 0) the zof messages framed back
// to back at the start of data — at most maxControlFrames; a header
// that does not parse ends them — then hands the rest to port 1 as a
// data frame. Nothing may panic; a FlowMod the switch refuses leaves
// its flows and parked packets as they were; after an accepted
// FlowAdd, a frame the new rule matches classifies to it or to a rule
// that beats it.
func checkFlowModInput(t testing.TB, data []byte, cov *flowModCoverage) {
	sw := NewSwitch(Config{DPID: 1, NumTables: 2, TableSizes: []int{4, 4}})
	for no := uint32(1); no <= 2; no++ {
		sw.AddPort(no, "", 1000).SetTx(func([]byte) {})
	}
	sw.AddControllerSink(func(zof.Message) {})
	sw.buffers.put(1, parkedFrame(t))
	for range maxControlFrames {
		h, err := zof.DecodeHeader(data)
		if err != nil || int(h.Length) > len(data) {
			break
		}
		msg, _, err := zof.Unmarshal(data[:h.Length])
		data = data[h.Length:]
		if err != nil {
			continue
		}
		before := stateOf(sw)
		refused := false
		sw.Process(msg, h.XID, func(rep zof.Message, _ uint32) {
			if _, ok := rep.(*zof.Error); ok {
				refused = true
			}
		})
		fm, ok := msg.(*zof.FlowMod)
		switch {
		case !ok:
		case refused:
			cov.refused++
			if after := stateOf(sw); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused %+v changed the switch: %d flows -> %d, or the entries or parked packets differ",
					fm, before.count, after.count)
			}
		case fm.Command == zof.FlowAdd:
			peekAdded(t, sw, fm, cov)
		}
	}
	sw.HandleFrame(1, data)
}

// parkedFrame is the packet every checked switch holds under buffer 0.
func parkedFrame(t testing.TB) []byte { return udpFrame(t, hostA, hostB, 1, 2, "parked") }

// peekAdded checks that a frame the accepted FlowAdd fm's match
// matches classifies, in fm's table, to the rule fm installed or to one
// ahead of it in the table's order.
func peekAdded(t testing.TB, sw *Switch, fm *zof.FlowMod, cov *flowModCoverage) {
	tbl := sw.tables[fm.TableID]
	entries := tbl.Entries()
	i := slices.IndexFunc(entries, func(e *flowtable.Entry) bool { return e.Priority == fm.Priority && e.Match == fm.Match })
	if i < 0 {
		t.Fatalf("accepted FlowAdd %v at priority %d is not installed", fm.Match, fm.Priority)
	}
	f, inPort := frameMatching(&fm.Match)
	if !fm.Match.MatchesFrame(f, inPort) {
		return // a match no frame meets, such as IP fields under ARP
	}
	cov.peeked++
	got := tbl.Peek(f, inPort)
	if j := slices.Index(entries, got); j < 0 || j > i || !got.Match.MatchesFrame(f, inPort) {
		t.Fatalf("a frame %v matches classifies to entry %d of %d, not to the new rule (%d) or one ahead of it", fm.Match, j, len(entries), i)
	}
}

// frameMatching builds a decoded frame, and an in-port, carrying every
// value m tests: the frame m matches, if m can match one.
func frameMatching(m *zof.Match) (*packet.Frame, uint32) {
	f := &packet.Frame{Layers: packet.LayerEthernet}
	f.Eth.Src, f.Eth.Dst = m.EthSrc, m.EthDst
	et := m.EtherType
	if m.Wildcards&zof.WEtherType != 0 {
		et = packet.EtherTypeIPv4
	}
	f.Eth.EtherType = et
	if m.Wildcards&zof.WVLAN == 0 {
		f.Layers |= packet.LayerVLAN
		f.Eth.EtherType, f.VLAN.EtherType, f.VLAN.VLAN = packet.EtherTypeVLAN, et, m.VLAN
	}
	if et == packet.EtherTypeIPv4 {
		f.Layers |= packet.LayerIPv4
		f.IPv4.Src, f.IPv4.Dst, f.IPv4.Protocol = m.IPSrc, m.IPDst, m.IPProto
		if m.Wildcards&zof.WIPProto != 0 {
			f.IPv4.Protocol = packet.ProtoUDP
		}
		switch f.IPv4.Protocol {
		case packet.ProtoTCP:
			f.Layers |= packet.LayerTCP
			f.TCP.SrcPort, f.TCP.DstPort = m.TPSrc, m.TPDst
		case packet.ProtoUDP:
			f.Layers |= packet.LayerUDP
			f.UDP.SrcPort, f.UDP.DstPort = m.TPSrc, m.TPDst
		}
	}
	inPort := m.InPort
	if m.Wildcards&zof.WInPort != 0 {
		inPort = 1
	}
	return f, inPort
}

// flowModSeeds are the FlowMods the switch tests build, a few to an
// input, each input ending in a data frame.
func flowModSeeds(t testing.TB) [][]byte {
	frame := udpFrame(t, hostA, hostB, 1, 2, "seed")
	input := func(msgs ...zof.Message) []byte {
		var b []byte
		for i, m := range msgs {
			b, _ = zof.MarshalAppend(b, m, uint32(1+i))
		}
		return append(b, frame...)
	}
	mod := func(cmd uint8, m zof.Match, prio uint16, acts ...zof.Action) *zof.FlowMod {
		return &zof.FlowMod{Command: cmd, Match: m, Priority: prio, BufferID: zof.NoBuffer, Actions: acts}
	}
	churn := zof.MatchAll()
	churn.Wildcards &^= zof.WEtherType
	churn.EtherType = 0x88b5
	divert := zof.MatchAll()
	divert.IPDst, divert.DstPrefix = hostB, 32
	keepalive := mod(zof.FlowAdd, divert, 7, zof.Output(2))
	keepalive.IdleTimeout, keepalive.Flags = 5, zof.FlagSendFlowRemoved
	var parked packet.Frame
	if err := packet.Decode(parkedFrame(t), &parked); err != nil {
		t.Fatal(err)
	}
	release := mod(zof.FlowAdd, zof.ExactMatch(&parked, 1), 100, zof.Output(2))
	release.BufferID = 0
	refusedRelease := mod(zof.FlowAdd, zof.ExactMatch(&parked, 1), 100, zof.Group(404))
	refusedRelease.BufferID = 0
	overlapA, overlapB := mod(zof.FlowAdd, zof.MatchAll(), 5, zof.Output(1)), mod(zof.FlowAdd, divert, 5, zof.Output(2))
	overlapA.Flags, overlapB.Flags = zof.FlagCheckOverlap, zof.FlagCheckOverlap
	resubmit := mod(zof.FlowAdd, zof.MatchAll(), 5, zof.SetTPDst(9999), zof.Output(zof.PortTable))
	second := mod(zof.FlowAdd, zof.MatchAll(), 5, zof.Output(2))
	second.TableID = 1
	noTable := mod(zof.FlowAdd, zof.MatchAll(), 0)
	noTable.TableID = 9
	return [][]byte{
		input(flowAdd(1, 10, zof.Output(2)), flowAdd(1, 10, zof.Output(1))),
		input(flowAdd(2, 10, zof.Group(99)), &zof.GroupMod{Command: zof.GroupAdd, GroupID: 99, GroupType: uint8(GroupAll),
			Buckets: []zof.GroupBucket{{Actions: []zof.Action{zof.Output(2)}}}}, flowAdd(2, 10, zof.Group(99))),
		input(flowAdd(3, 10, zof.Output(2)), mod(zof.FlowModify, zof.MatchAll(), 0, zof.Group(404))),
		input(noTable, mod(zof.FlowAdd, zof.MatchAll(), 1, zof.NF(9), zof.Output(2))),
		input(mod(zof.FlowAdd, churn, 200, zof.Output(2)), mod(zof.FlowDeleteStrict, churn, 200)),
		input(mod(zof.FlowAdd, divert, 20, zof.Output(1)), mod(zof.FlowModify, divert, 20, zof.Output(2)), mod(zof.FlowDelete, divert, 20)),
		input(refusedRelease, release, keepalive),
		input(overlapA, overlapB),
		input(flowAdd(1, 10, zof.Output(2)), flowAdd(2, 10, zof.Output(2)), flowAdd(3, 11, zof.Output(2)), flowAdd(4, 9, zof.Output(2)), flowAdd(5, 10, zof.Output(2))),
		input(second, resubmit),
	}
}

// TestSwitchFlowModInputs runs the FlowMod checker over the seeds and
// over seeded byte-level mutations of them.
func TestSwitchFlowModInputs(t *testing.T) {
	var cov flowModCoverage
	rng := rand.New(rand.NewSource(1))
	for _, seed := range flowModSeeds(t) {
		checkFlowModInput(t, seed, &cov)
		for range 200 {
			in := slices.Clone(seed)
			for range 1 + rng.Intn(3) {
				in[rng.Intn(len(in))] = byte(rng.Intn(256))
			}
			checkFlowModInput(t, in, &cov)
		}
	}
	t.Logf("%+v", cov)
	if cov.refused < 500 || cov.peeked < 1000 {
		t.Fatalf("inputs too far from a FlowMod the switch acts on: %+v", cov)
	}
}

// FuzzSwitchFlowMod drives the same checker from arbitrary bytes,
// starting from the seeds.
func FuzzSwitchFlowMod(f *testing.F) {
	for _, seed := range flowModSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFlowModInput(t, data, new(flowModCoverage)) })
}
