package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/zof"
)

// Frame and burst geometry shared by the switch workloads.
const (
	frameLen  = 64      // bytes on the wire, FCS excluded: the smallest frame
	burstLen  = 32      // frames per HandleBurst call
	orderLen  = 1 << 16 // access-order ring; a multiple of burstLen
	inPort    = 1       // the port the generator offers frames on
	outPorts  = 4       // egress ports 2..5, one sink each
	firstOut  = 2
	zipfSkew  = 1.2
	scratchIP = 50 // first octet no generated flow uses: home of scratch rules
)

// inputs is everything a workload hands the program under test. It is a
// pure function of (workload, seed); neither of those two values is in
// it, so nothing built from an inputs can branch on them.
type inputs struct {
	frames [][]byte       // one frame per microflow
	order  []uint32       // access order: indexes into frames
	egress []uint32       // per flow: the port its frame must leave on
	rules  []*zof.FlowMod // installed before traffic
	sizes  []uint16       // fabric_warm: frame size per echo of the throughput windows
}

// sha256 fingerprints the inputs so two runs can be shown to have
// offered the program the same bytes in the same order.
func (in *inputs) sha256() string {
	h := sha256.New()
	var n [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(n[:], v); h.Write(n[:]) }
	put(uint64(len(in.frames)))
	for _, f := range in.frames {
		put(uint64(len(f)))
		h.Write(f)
	}
	put(uint64(len(in.order)))
	for _, o := range in.order {
		put(uint64(o))
	}
	for _, e := range in.egress {
		put(uint64(e))
	}
	put(uint64(len(in.rules)))
	for _, r := range in.rules {
		b, err := zof.Marshal(r, 0)
		if err != nil {
			panic(fmt.Sprintf("bench: marshal generated rule: %v", err))
		}
		h.Write(b)
	}
	put(uint64(len(in.sizes)))
	for _, s := range in.sizes {
		put(uint64(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flow is one generated five-tuple.
type flow struct {
	src, dst     packet.IPv4Addr
	proto        uint8
	sport, dport uint16
}

// frame serializes fl as a frameLen-byte frame with valid IPv4 and L4
// checksums, so a rewrite that recomputes them can be verified.
func (fl flow) frame(size int) []byte {
	b := packet.NewBuffer(64)
	switch fl.proto {
	case packet.ProtoTCP:
		b.Append(size - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - packet.TCPMinHeaderLen)
		tcp := packet.TCP{SrcPort: fl.sport, DstPort: fl.dport, Flags: packet.TCPSyn, Window: 65535}
		tcp.SerializeToWithChecksum(b, fl.src, fl.dst)
	default:
		b.Append(size - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - packet.UDPHeaderLen)
		udp := packet.UDP{SrcPort: fl.sport, DstPort: fl.dport}
		udp.SerializeToWithChecksum(b, fl.src, fl.dst)
	}
	ip := packet.IPv4{TTL: 64, Protocol: fl.proto, Src: fl.src, Dst: fl.dst}
	ip.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.MACFromUint64(0x020000000000 | uint64(fl.dst.Uint32())),
		Src:       packet.MACFromUint64(0x020000000000 | uint64(fl.src.Uint32())),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

func ipv4Match(m zof.Match) zof.Match {
	m.Wildcards &^= zof.WEtherType
	m.EtherType = packet.EtherTypeIPv4
	return m
}

func addRule(m zof.Match, prio uint16, acts ...zof.Action) *zof.FlowMod {
	return &zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: prio,
		BufferID: zof.NoBuffer, Actions: acts}
}

// zipfOrder draws the access order: popular flows recur, the tail is
// visited rarely.
func zipfOrder(rng *rand.Rand, flows int) []uint32 {
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(flows-1))
	order := make([]uint32, orderLen)
	for i := range order {
		order[i] = uint32(z.Uint64())
	}
	return order
}

// outboundFlows draws n distinct five-tuples from 10.1/16 sources to
// 172.16/16 destinations. Sources and destinations are disjoint, so no
// flow is another's reverse and a conntrack/NAT chain sees every frame
// as outbound.
func outboundFlows(rng *rand.Rand, n int) []flow {
	seen := make(map[flow]bool, n)
	out := make([]flow, 0, n)
	for len(out) < n {
		fl := flow{
			src:   packet.IPv4Addr{10, 1, byte(rng.Intn(256)), byte(1 + rng.Intn(254))},
			dst:   packet.IPv4Addr{172, 16, byte(rng.Intn(256)), byte(1 + rng.Intn(254))},
			proto: packet.ProtoTCP,
			sport: uint16(1024 + rng.Intn(60000)),
			dport: []uint16{80, 443, 53, 8080, 5000}[rng.Intn(5)],
		}
		if rng.Intn(4) == 0 {
			fl.proto = packet.ProtoUDP
		}
		if !seen[fl] {
			seen[fl] = true
			out = append(out, fl)
		}
	}
	return out
}

// genSwitchFwd: 16 rules (one /20 of 172.16/16 each), flows zipf flows.
func genSwitchFwd(seed int64, flows int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < 16; i++ {
		m := ipv4Match(zof.MatchAll())
		m.IPDst, m.DstPrefix = packet.IPv4Addr{172, 16, byte(i << 4), 0}, 20
		in.rules = append(in.rules, addRule(m, 100, zof.Output(uint32(firstOut+i%outPorts))))
	}
	for _, fl := range outboundFlows(rng, flows) {
		in.frames = append(in.frames, fl.frame(frameLen))
		in.egress = append(in.egress, uint32(firstOut+int(fl.dst[2]>>4)%outPorts))
	}
	in.order = zipfOrder(rng, flows)
	return in
}

// genMissStorm: rules over four tuple shapes at eight priorities, one
// flow per rule, uniform access. Shapes are kept disjoint by the first
// octet of the destination, so every flow matches exactly its own rule.
func genMissStorm(seed int64, rules int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < rules; i++ {
		k := i / 4 // index within the shape
		hi, lo := byte(k>>8), byte(k)
		fl := flow{
			src:   packet.IPv4Addr{10, 1, byte(rng.Intn(256)), byte(1 + rng.Intn(254))},
			proto: packet.ProtoUDP,
			sport: uint16(1024 + rng.Intn(60000)),
			dport: uint16(1024 + rng.Intn(60000)),
		}
		m := ipv4Match(zof.MatchAll())
		switch i % 4 {
		case 0: // /24
			fl.dst = packet.IPv4Addr{20, hi, lo, byte(1 + rng.Intn(254))}
			m.IPDst, m.DstPrefix = packet.IPv4Addr{20, hi, lo, 0}, 24
		case 1: // /16
			fl.dst = packet.IPv4Addr{30 + hi, lo, byte(rng.Intn(256)), byte(1 + rng.Intn(254))}
			m.IPDst, m.DstPrefix = packet.IPv4Addr{30 + hi, lo, 0, 0}, 16
		case 2: // /32 + proto
			fl.dst = packet.IPv4Addr{40, hi, lo, 1}
			m.IPDst, m.DstPrefix = fl.dst, 32
			m.Wildcards &^= zof.WIPProto
			m.IPProto = packet.ProtoUDP
		case 3: // /32 + proto + port
			fl.dst = packet.IPv4Addr{45, hi, lo, 1}
			m.IPDst, m.DstPrefix = fl.dst, 32
			m.Wildcards &^= zof.WIPProto | zof.WTPDst
			m.IPProto, m.TPDst = packet.ProtoUDP, fl.dport
		}
		out := uint32(firstOut + rng.Intn(outPorts))
		in.rules = append(in.rules, addRule(m, uint16(100+rng.Intn(8)), zof.Output(out)))
		in.frames = append(in.frames, fl.frame(frameLen))
		in.egress = append(in.egress, out)
	}
	in.order = make([]uint32, orderLen)
	for i := range in.order {
		in.order[i] = uint32(rng.Intn(rules))
	}
	return in
}

// genNFChain: one match-all rule into the chain, flows zipf flows that
// are all outbound from the NAT's point of view.
func genNFChain(seed int64, flows int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for _, fl := range outboundFlows(rng, flows) {
		in.frames = append(in.frames, fl.frame(frameLen))
		in.egress = append(in.egress, firstOut)
	}
	in.order = zipfOrder(rng, flows)
	return in
}

// IMIX 7:4:1 of the three classic sizes.
var imix = []struct {
	size   uint16
	weight int
}{{64, 7}, {576, 4}, {1500, 1}}

// genFabricWarm: the size of every echo of the throughput windows.
func genFabricWarm(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{sizes: make([]uint16, orderLen)}
	for i := range in.sizes {
		r := rng.Intn(12)
		for _, c := range imix {
			if r < c.weight {
				in.sizes[i] = c.size
				break
			}
			r -= c.weight
		}
	}
	return in
}

// genFlowSetup: the first frame of each of n distinct locally
// administered unicast source MACs; every MAC is one never-seen flow per
// cycle.
func genFlowSetup(seed int64, n int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	seen := make(map[uint64]bool, n)
	for len(in.frames) < n {
		v := 0x06b000000000 | uint64(rng.Int63n(1<<32))
		if !seen[v] {
			seen[v] = true
			in.frames = append(in.frames, setupFrame(len(in.frames), packet.MACFromUint64(v)))
		}
	}
	return in
}
