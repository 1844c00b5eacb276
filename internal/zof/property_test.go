package zof

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// randMatch builds a random match drawn from realistic shapes.
func randMatch(rng *rand.Rand) Match {
	m := MatchAll()
	clear := func(bit uint32) bool {
		if rng.Intn(2) == 0 {
			m.Wildcards &^= bit
			return true
		}
		return false
	}
	if clear(WInPort) {
		m.InPort = uint32(rng.Intn(4) + 1)
	}
	if clear(WEthSrc) {
		m.EthSrc = packet.MACFromUint64(uint64(rng.Intn(4)))
	}
	if clear(WEthDst) {
		m.EthDst = packet.MACFromUint64(uint64(rng.Intn(4)))
	}
	if clear(WEtherType) {
		m.EtherType = packet.EtherTypeIPv4
	}
	if clear(WIPProto) {
		m.IPProto = []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)]
	}
	if clear(WTPSrc) {
		m.TPSrc = uint16(rng.Intn(3))
	}
	if clear(WTPDst) {
		m.TPDst = uint16(rng.Intn(3))
	}
	m.SrcPrefix = uint8(rng.Intn(5)) * 8
	m.IPSrc = packet.IPv4FromUint32(rng.Uint32() & 0x03030303)
	m.DstPrefix = uint8(rng.Intn(5)) * 8
	m.IPDst = packet.IPv4FromUint32(rng.Uint32() & 0x03030303)
	return m
}

// randFrame builds a random decoded frame from the same value universe.
func randFrame(t *testing.T, rng *rand.Rand) *packet.Frame {
	t.Helper()
	b := packet.NewBuffer(96)
	proto := []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)]
	if proto == packet.ProtoTCP {
		tcp := packet.TCP{SrcPort: uint16(rng.Intn(3)), DstPort: uint16(rng.Intn(3))}
		tcp.SerializeTo(b)
	} else {
		udp := packet.UDP{SrcPort: uint16(rng.Intn(3)), DstPort: uint16(rng.Intn(3))}
		udp.SerializeTo(b)
	}
	ip := packet.IPv4{TTL: 8, Protocol: proto,
		Src: packet.IPv4FromUint32(rng.Uint32() & 0x03030303),
		Dst: packet.IPv4FromUint32(rng.Uint32() & 0x03030303)}
	ip.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.MACFromUint64(uint64(rng.Intn(4))),
		Src:       packet.MACFromUint64(uint64(rng.Intn(4))),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(b)
	var f packet.Frame
	if err := packet.Decode(append([]byte(nil), b.Bytes()...), &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestPropertySubsumesImpliesMatches is the semantic contract linking
// the two match operations: if A subsumes B, then every frame B
// matches, A matches too. Checked over a dense random universe so
// collisions (and so subsumption pairs) actually occur.
func TestPropertySubsumesImpliesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	matches := make([]Match, 60)
	for i := range matches {
		matches[i] = randMatch(rng)
	}
	frames := make([]*packet.Frame, 300)
	for i := range frames {
		frames[i] = randFrame(t, rng)
	}
	subsumptions, violations := 0, 0
	for i := range matches {
		for j := range matches {
			a, b := &matches[i], &matches[j]
			if !a.Subsumes(b) {
				continue
			}
			subsumptions++
			for _, f := range frames {
				inPort := uint32(rng.Intn(4) + 1)
				if b.MatchesFrame(f, inPort) && !a.MatchesFrame(f, inPort) {
					violations++
					t.Errorf("subsumption violated:\n a=%v\n b=%v", a, b)
					if violations > 3 {
						t.FailNow()
					}
				}
			}
		}
	}
	if subsumptions < 60 { // at least the reflexive ones
		t.Fatalf("only %d subsumption pairs; universe too sparse", subsumptions)
	}
}

// TestPropertyOverlaps ties Overlaps to the other two match operations:
// it is symmetric, Subsumes in either direction implies it, and two
// matches satisfied by one frame overlap (the converse is not promised:
// Overlaps judges field by field, as CHECK_OVERLAP does).
func TestPropertyOverlaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	matches := make([]Match, 80)
	for i := range matches {
		matches[i] = randMatch(rng)
	}
	frames := make([]*packet.Frame, 200)
	for i := range frames {
		frames[i] = randFrame(t, rng)
	}
	overlapping, disjoint := 0, 0
	for i := range matches {
		for j := range matches {
			a, b := &matches[i], &matches[j]
			got := a.Overlaps(b)
			if got != b.Overlaps(a) {
				t.Fatalf("Overlaps not symmetric:\n a=%v\n b=%v", a, b)
			}
			if a.Subsumes(b) && !got {
				t.Fatalf("a subsumes b but does not overlap it:\n a=%v\n b=%v", a, b)
			}
			if got {
				overlapping++
				continue
			}
			disjoint++
			for _, f := range frames {
				inPort := uint32(rng.Intn(4) + 1)
				if a.MatchesFrame(f, inPort) && b.MatchesFrame(f, inPort) {
					t.Fatalf("one frame satisfies two matches that do not overlap:\n a=%v\n b=%v", a, b)
				}
			}
		}
	}
	if overlapping < 200 || disjoint < 200 {
		t.Fatalf("%d overlapping and %d disjoint pairs; universe too sparse", overlapping, disjoint)
	}
}

// TestPropertyMatchRoundTripPreservesSemantics: encode/decode of a
// match must not change which frames it matches.
func TestPropertyMatchRoundTripPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := randMatch(rng)
		fm := &FlowMod{Match: m, BufferID: NoBuffer}
		b, err := Marshal(fm, 1)
		if err != nil {
			t.Fatal(err)
		}
		msg, _, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*FlowMod).Match
		for i := 0; i < 20; i++ {
			f := randFrame(t, rng)
			inPort := uint32(rng.Intn(4) + 1)
			if m.MatchesFrame(f, inPort) != got.MatchesFrame(f, inPort) {
				t.Fatalf("round-tripped match diverges: %v vs %v", m, got)
			}
		}
	}
}
