package zof

import (
	"fmt"
	"strings"

	"repro/internal/packet"
)

// Wildcard bits for Match. A set bit means "don't care". IPv4 source and
// destination use prefix lengths instead (0 = fully wildcarded).
const (
	WInPort uint32 = 1 << iota
	WEthSrc
	WEthDst
	WEtherType
	WVLAN
	WIPProto
	WTPSrc
	WTPDst

	// WAll wildcards every bitmap-controlled field.
	WAll = WInPort | WEthSrc | WEthDst | WEtherType | WVLAN | WIPProto | WTPSrc | WTPDst
)

// MatchLen is the fixed encoded size of a Match.
const MatchLen = 40

// Match selects packets, OpenFlow-1.0 style: a wildcard bitmap plus
// concrete field values, with IPv4 addresses narrowed by prefix length.
type Match struct {
	Wildcards uint32
	InPort    uint32
	EthSrc    packet.MAC
	EthDst    packet.MAC
	EtherType uint16
	VLAN      uint16
	IPProto   uint8
	IPSrc     packet.IPv4Addr
	IPDst     packet.IPv4Addr
	SrcPrefix uint8 // 0 wildcards IPSrc, 32 matches exactly
	DstPrefix uint8
	TPSrc     uint16
	TPDst     uint16
}

// MatchAll returns the fully wildcarded match.
func MatchAll() Match { return Match{Wildcards: WAll} }

// ExactMatch builds the all-fields-exact match for a decoded frame, the
// match a reactive controller installs after a packet-in.
func ExactMatch(f *packet.Frame, inPort uint32) Match {
	m := Match{InPort: inPort, EthSrc: f.Eth.Src, EthDst: f.Eth.Dst, EtherType: f.EtherType()}
	if f.Has(packet.LayerVLAN) {
		m.VLAN = f.VLAN.VLAN
	} else {
		m.Wildcards |= WVLAN
	}
	if f.Has(packet.LayerIPv4) {
		m.IPProto = f.IPv4.Protocol
		m.IPSrc, m.IPDst = f.IPv4.Src, f.IPv4.Dst
		m.SrcPrefix, m.DstPrefix = 32, 32
	} else {
		m.Wildcards |= WIPProto
	}
	switch {
	case f.Has(packet.LayerTCP):
		m.TPSrc, m.TPDst = f.TCP.SrcPort, f.TCP.DstPort
	case f.Has(packet.LayerUDP):
		m.TPSrc, m.TPDst = f.UDP.SrcPort, f.UDP.DstPort
	default:
		m.Wildcards |= WTPSrc | WTPDst
	}
	return m
}

// PrefixMask returns the IPv4 mask for a prefix length; lengths past 32
// (legal in a Match built in process) mean 32.
func PrefixMask(n uint8) uint32 {
	if n == 0 {
		return 0
	}
	if n >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - n)
}

// MatchesFrame reports whether the decoded frame arriving on inPort
// satisfies the match.
func (m *Match) MatchesFrame(f *packet.Frame, inPort uint32) bool {
	if m.Wildcards&WInPort == 0 && m.InPort != inPort {
		return false
	}
	if m.Wildcards&WEthSrc == 0 && m.EthSrc != f.Eth.Src {
		return false
	}
	if m.Wildcards&WEthDst == 0 && m.EthDst != f.Eth.Dst {
		return false
	}
	if m.Wildcards&WEtherType == 0 && m.EtherType != f.EtherType() {
		return false
	}
	if m.Wildcards&WVLAN == 0 {
		if !f.Has(packet.LayerVLAN) || f.VLAN.VLAN != m.VLAN {
			return false
		}
	}
	hasIP := f.Has(packet.LayerIPv4)
	if m.Wildcards&WIPProto == 0 {
		if !hasIP || f.IPv4.Protocol != m.IPProto {
			return false
		}
	}
	if m.SrcPrefix > 0 {
		if !hasIP || f.IPv4.Src.Uint32()&PrefixMask(m.SrcPrefix) != m.IPSrc.Uint32()&PrefixMask(m.SrcPrefix) {
			return false
		}
	}
	if m.DstPrefix > 0 {
		if !hasIP || f.IPv4.Dst.Uint32()&PrefixMask(m.DstPrefix) != m.IPDst.Uint32()&PrefixMask(m.DstPrefix) {
			return false
		}
	}
	if m.Wildcards&(WTPSrc|WTPDst) != WTPSrc|WTPDst {
		var sp, dp uint16
		switch {
		case f.Has(packet.LayerTCP):
			sp, dp = f.TCP.SrcPort, f.TCP.DstPort
		case f.Has(packet.LayerUDP):
			sp, dp = f.UDP.SrcPort, f.UDP.DstPort
		default:
			return false
		}
		if m.Wildcards&WTPSrc == 0 && m.TPSrc != sp {
			return false
		}
		if m.Wildcards&WTPDst == 0 && m.TPDst != dp {
			return false
		}
	}
	return true
}

// Subsumes reports whether every packet matched by o is also matched by
// m (m is equal to or more general than o). Used by flow-mod delete with
// wildcards.
func (m *Match) Subsumes(o *Match) bool {
	type fieldCheck struct {
		bit uint32
		eq  bool
	}
	checks := []fieldCheck{
		{WInPort, m.InPort == o.InPort},
		{WEthSrc, m.EthSrc == o.EthSrc},
		{WEthDst, m.EthDst == o.EthDst},
		{WEtherType, m.EtherType == o.EtherType},
		{WVLAN, m.VLAN == o.VLAN},
		{WIPProto, m.IPProto == o.IPProto},
		{WTPSrc, m.TPSrc == o.TPSrc},
		{WTPDst, m.TPDst == o.TPDst},
	}
	for _, c := range checks {
		if m.Wildcards&c.bit != 0 {
			continue // m doesn't care
		}
		if o.Wildcards&c.bit != 0 || !c.eq {
			return false // m is specific where o is wild or differs
		}
	}
	if m.SrcPrefix > o.SrcPrefix {
		return false
	}
	if m.SrcPrefix > 0 {
		mask := PrefixMask(m.SrcPrefix)
		if m.IPSrc.Uint32()&mask != o.IPSrc.Uint32()&mask {
			return false
		}
	}
	if m.DstPrefix > o.DstPrefix {
		return false
	}
	if m.DstPrefix > 0 {
		mask := PrefixMask(m.DstPrefix)
		if m.IPDst.Uint32()&mask != o.IPDst.Uint32()&mask {
			return false
		}
	}
	return true
}

// Overlaps reports whether m and o overlap in OpenFlow's CHECK_OVERLAP
// sense: no field that both specify differs (IP prefixes compared at the
// shorter length), so a single packet could satisfy both. Symmetric, and
// implied by Subsumes in either direction.
func (m *Match) Overlaps(o *Match) bool {
	both := ^(m.Wildcards | o.Wildcards) // fields neither wildcards
	switch {
	case both&WInPort != 0 && m.InPort != o.InPort,
		both&WEthSrc != 0 && m.EthSrc != o.EthSrc,
		both&WEthDst != 0 && m.EthDst != o.EthDst,
		both&WEtherType != 0 && m.EtherType != o.EtherType,
		both&WVLAN != 0 && m.VLAN != o.VLAN,
		both&WIPProto != 0 && m.IPProto != o.IPProto,
		both&WTPSrc != 0 && m.TPSrc != o.TPSrc,
		both&WTPDst != 0 && m.TPDst != o.TPDst:
		return false
	}
	src := PrefixMask(min(m.SrcPrefix, o.SrcPrefix))
	dst := PrefixMask(min(m.DstPrefix, o.DstPrefix))
	return m.IPSrc.Uint32()&src == o.IPSrc.Uint32()&src &&
		m.IPDst.Uint32()&dst == o.IPDst.Uint32()&dst
}

// appendTo encodes the fixed 40-byte form.
func (m *Match) appendTo(b []byte) []byte {
	b = appendU32(b, m.Wildcards)
	b = appendU32(b, m.InPort)
	b = append(b, m.EthSrc[:]...)
	b = append(b, m.EthDst[:]...)
	b = appendU16(b, m.EtherType)
	b = appendU16(b, m.VLAN)
	b = append(b, m.IPProto, 0) // pad
	b = append(b, m.IPSrc[:]...)
	b = append(b, m.IPDst[:]...)
	b = append(b, m.SrcPrefix, m.DstPrefix)
	b = appendU16(b, m.TPSrc)
	b = appendU16(b, m.TPDst)
	return b
}

// decodeFrom reads the fixed form via r.
func (m *Match) decodeFrom(r *reader) {
	m.Wildcards = r.u32()
	m.InPort = r.u32()
	copy(m.EthSrc[:], r.bytes(6))
	copy(m.EthDst[:], r.bytes(6))
	m.EtherType = r.u16()
	m.VLAN = r.u16()
	m.IPProto = r.u8()
	r.u8() // pad
	copy(m.IPSrc[:], r.bytes(4))
	copy(m.IPDst[:], r.bytes(4))
	m.SrcPrefix = r.u8()
	m.DstPrefix = r.u8()
	m.TPSrc = r.u16()
	m.TPDst = r.u16()
	if m.SrcPrefix > 32 {
		m.SrcPrefix = 32
	}
	if m.DstPrefix > 32 {
		m.DstPrefix = 32
	}
}

// String renders only the constrained fields.
func (m Match) String() string {
	var parts []string
	if m.Wildcards&WInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if m.Wildcards&WEthSrc == 0 {
		parts = append(parts, "eth_src="+m.EthSrc.String())
	}
	if m.Wildcards&WEthDst == 0 {
		parts = append(parts, "eth_dst="+m.EthDst.String())
	}
	if m.Wildcards&WEtherType == 0 {
		parts = append(parts, fmt.Sprintf("eth_type=%#x", m.EtherType))
	}
	if m.Wildcards&WVLAN == 0 {
		parts = append(parts, fmt.Sprintf("vlan=%d", m.VLAN))
	}
	if m.Wildcards&WIPProto == 0 {
		parts = append(parts, fmt.Sprintf("ip_proto=%d", m.IPProto))
	}
	if m.SrcPrefix > 0 {
		parts = append(parts, fmt.Sprintf("ip_src=%v/%d", m.IPSrc, m.SrcPrefix))
	}
	if m.DstPrefix > 0 {
		parts = append(parts, fmt.Sprintf("ip_dst=%v/%d", m.IPDst, m.DstPrefix))
	}
	if m.Wildcards&WTPSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TPSrc))
	}
	if m.Wildcards&WTPDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TPDst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
