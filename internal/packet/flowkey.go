package packet

import "encoding/binary"

// FlowKey identifies a flow for exact-match tables and load balancing.
// It is a comparable value type, so it can key a map directly — the same
// design pressure that made gopacket use fixed arrays for Endpoints.
// IPv4 addresses occupy the first four bytes of the 16-byte fields.
type FlowKey struct {
	SrcIP     [16]byte
	DstIP     [16]byte
	EtherType uint16
	VLAN      uint16
	Proto     uint8
	SrcPort   uint16
	DstPort   uint16
}

// Extract sets k to the flow key of a decoded frame, in place: the
// datapath cuts each frame's key straight into the slot that holds it,
// where a 42-byte return by value and a copy would cost more.
func (k *FlowKey) Extract(f *Frame) {
	*k = FlowKey{EtherType: f.EtherType()}
	if f.Has(LayerVLAN) {
		k.VLAN = f.VLAN.VLAN
	}
	switch {
	case f.Has(LayerIPv4):
		copy(k.SrcIP[:4], f.IPv4.Src[:])
		copy(k.DstIP[:4], f.IPv4.Dst[:])
		k.Proto = f.IPv4.Protocol
	case f.Has(LayerIPv6):
		k.SrcIP = f.IPv6.Src
		k.DstIP = f.IPv6.Dst
		k.Proto = f.IPv6.NextHeader
	case f.Has(LayerARP):
		copy(k.SrcIP[:4], f.ARP.SenderIP[:])
		copy(k.DstIP[:4], f.ARP.TargetIP[:])
	}
	switch {
	case f.Has(LayerTCP):
		k.SrcPort, k.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case f.Has(LayerUDP):
		k.SrcPort, k.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	case f.Has(LayerICMPv4):
		k.SrcPort = uint16(f.ICMP.Type)<<8 | uint16(f.ICMP.Code)
	}
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	k.SrcIP, k.DstIP = k.DstIP, k.SrcIP
	k.SrcPort, k.DstPort = k.DstPort, k.SrcPort
	return k
}

// Multipliers of the word mixer: the 64-bit golden ratio and
// MurmurHash3's first finalizer constant. Both are odd, so multiplying
// by either is a bijection on uint64.
const (
	mulGolden = 0x9e3779b97f4a7c15
	mulMurmur = 0xff51afd7ed558ccd
)

// hashEndpoint mixes one (address, port) endpoint into a word: the port
// spread over the whole word so it cannot cancel address bits, then the
// address as two little-endian words, a multiply-xorshift round each
// (the xorshift pulls a product's well-mixed high half over its weak
// low half).
func hashEndpoint(ip *[16]byte, port uint16) uint64 {
	h := (uint64(port)*mulGolden ^ binary.LittleEndian.Uint64(ip[:8])) * mulMurmur
	h = (h ^ h>>32 ^ binary.LittleEndian.Uint64(ip[8:])) * mulMurmur
	return h ^ h>>32
}

// finish makes a flow hash of two endpoint hashes and the fields both
// directions share, through MurmurHash3's fmix64 finalizer: every
// output bit depends on every input bit, so consumers may cut a shard
// or bucket index anywhere.
func (k *FlowKey) finish(a, b uint64) uint64 {
	x := (a*mulGolden + b) ^ (uint64(k.EtherType)<<32 | uint64(k.VLAN)<<16 | uint64(k.Proto))
	x ^= x >> 33
	x *= mulMurmur
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// FastHash returns a 64-bit hash of the key, mixed a machine word at a
// time; the two endpoints are independent multiply chains the CPU
// overlaps. Like gopacket's FastHash it is symmetric-friendly only via
// explicit Reverse; distinct directions hash differently, which
// exact-match tables want. The hashes read the key in place: copying a
// 42-byte receiver costs more than mixing it.
func (k *FlowKey) FastHash() uint64 {
	return k.finish(hashEndpoint(&k.SrcIP, k.SrcPort), hashEndpoint(&k.DstIP, k.DstPort))
}

// SymmetricHash hashes both directions of the flow to the same value,
// the property load balancers need so A->B and B->A shard together:
// the two endpoint hashes enter the finalizer in sorted order.
func (k *FlowKey) SymmetricHash() uint64 {
	a, b := hashEndpoint(&k.SrcIP, k.SrcPort), hashEndpoint(&k.DstIP, k.DstPort)
	return k.finish(min(a, b), max(a, b))
}
