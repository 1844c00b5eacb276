package nf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/packet"
)

// TunnelOverhead is the bytes a VXLAN-like encap prepends: outer
// Ethernet + option-less IPv4 + UDP + 8-byte VXLAN header.
const TunnelOverhead = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen +
	packet.UDPHeaderLen + vxlanHeaderLen

const (
	vxlanHeaderLen   = 8
	vxlanFlagVNI     = 0x08 // "VNI present" flag byte
	DefaultVXLANPort = 4789
)

// TunnelConfig configures a point-to-point VXLAN-like tunnel between a
// local and a remote VTEP. Encap and decap are separate stages built
// from the same config, so each direction of a steering rule composes
// exactly the stage it needs.
type TunnelConfig struct {
	Name      string // base stage name; default "vxlan"
	VNI       uint32 // 24-bit virtual network id
	LocalIP   packet.IPv4Addr
	RemoteIP  packet.IPv4Addr
	LocalMAC  packet.MAC
	RemoteMAC packet.MAC
}

func (c *TunnelConfig) fill() {
	if c.Name == "" {
		c.Name = "vxlan"
	}
}

// TunnelEncap wraps frames in outer Eth+IPv4+UDP+VXLAN headers toward
// the remote VTEP. The outer UDP source port carries the inner flow's
// symmetric hash, the standard trick that lets the underlay ECMP
// distinct overlay flows without parsing past the outer header.
type TunnelEncap struct {
	cfg TunnelConfig
	// hdr is the outer header with everything but the two lengths, the
	// entropy port and the IPv4 checksum filled in; ipSum is the IPv4
	// header's ones'-complement sum with those fields zero.
	hdr      [TunnelOverhead]byte
	ipSum    uint32
	encapped atomic.Uint64
	bytes    atomic.Uint64 // overhead bytes added
}

// NewTunnelEncap builds the encap stage and its outer-header template:
// VXLAN flags + 24-bit VNI, UDP with checksum 0 (legal for UDP/IPv4,
// and what VXLAN uses), option-less IPv4 with DF and TTL 64, Ethernet.
func NewTunnelEncap(cfg TunnelConfig) *TunnelEncap {
	cfg.fill()
	t := &TunnelEncap{cfg: cfg}
	b := packet.NewBuffer(TunnelOverhead)
	vx := b.Append(vxlanHeaderLen)
	binary.BigEndian.PutUint32(vx[0:4], uint32(vxlanFlagVNI)<<24)
	binary.BigEndian.PutUint32(vx[4:8], (cfg.VNI&0xffffff)<<8)
	udp := packet.UDP{DstPort: DefaultVXLANPort}
	udp.SerializeTo(b)
	ip := packet.IPv4{Flags: packet.IPv4DontFragment, TTL: 64, Protocol: packet.ProtoUDP, Src: cfg.LocalIP, Dst: cfg.RemoteIP}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: cfg.RemoteMAC, Src: cfg.LocalMAC, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	h := t.hdr[:]
	copy(h, b.Bytes())
	clear(h[16:18]) // IPv4 total length, stamped per frame
	clear(h[24:26]) // IPv4 header checksum, likewise
	t.ipSum = uint32(^packet.Checksum(h[14:34], 0))
	return t
}

// Name implements Stage.
func (t *TunnelEncap) Name() string { return t.cfg.Name + "-encap" }

// Process implements Stage. Encap reframes the packet and never drops.
func (t *TunnelEncap) Process(p *Packet) {
	// Outer UDP source-port entropy from the inner flow, before the
	// decoded view flips to the outer headers.
	var k packet.FlowKey
	k.Extract(p.Frame)
	srcPort := 49152 | uint16(k.SymmetricHash()&0x3fff)

	ipLen := uint32(TunnelOverhead - packet.EthernetHeaderLen + len(p.Data))
	data := p.Mem.Grow(p.Data, TunnelOverhead)
	h := data[:TunnelOverhead]
	copy(h, t.hdr[:])
	binary.BigEndian.PutUint16(h[16:18], uint16(ipLen)) // IPv4 total length
	sum := t.ipSum + ipLen                              // at most 0x1fffe: one fold
	binary.BigEndian.PutUint16(h[24:26], ^uint16(sum&0xffff+sum>>16))
	binary.BigEndian.PutUint16(h[34:36], srcPort)
	binary.BigEndian.PutUint16(h[38:40], uint16(ipLen-packet.IPv4MinHeaderLen)) // UDP length

	p.Data = data
	// The decoded view now describes the outer packet; the inner frame
	// is opaque payload to downstream match/output actions.
	_ = packet.Decode(data, p.Frame)
	if p.Explain {
		p.Note = fmt.Sprintf("vni %d %s -> %s", t.cfg.VNI, t.cfg.LocalIP, t.cfg.RemoteIP)
	} else {
		t.encapped.Add(1)
		t.bytes.Add(TunnelOverhead)
	}
	p.Verdict = VerdictContinue
}

// StateSummary implements Stage. Encap is stateless; entries stay 0.
func (t *TunnelEncap) StateSummary() StateSummary {
	return StateSummary{Counters: map[string]uint64{
		"encapped":       t.encapped.Load(),
		"overhead_bytes": t.bytes.Load(),
	}}
}

// TunnelDecap strips the outer Eth+IPv4+UDP+VXLAN headers after
// verifying the UDP port and VNI; frames that are not this tunnel's
// are dropped (a real VTEP would hand them to the next tunnel).
type TunnelDecap struct {
	cfg      TunnelConfig
	decapped atomic.Uint64
	notVXLAN atomic.Uint64 // outer headers don't parse as this tunnel's UDP port
	badVNI   atomic.Uint64
}

// NewTunnelDecap builds the decap stage.
func NewTunnelDecap(cfg TunnelConfig) *TunnelDecap {
	cfg.fill()
	return &TunnelDecap{cfg: cfg}
}

// Name implements Stage.
func (t *TunnelDecap) Name() string { return t.cfg.Name + "-decap" }

// Process implements Stage.
func (t *TunnelDecap) Process(p *Packet) { p.Verdict = t.decap(p) }

// decap strips one packet's outer headers, or says why it is not this
// tunnel's. The outer packet must be IPv4: the decoded view's IPv4
// fields are only valid (not left over from the pooled Frame's last
// decode) when the layer bit is set.
func (t *TunnelDecap) decap(p *Packet) Verdict {
	f := p.Frame
	if !f.Has(packet.LayerIPv4) || !f.Has(packet.LayerUDP) || f.UDP.DstPort != DefaultVXLANPort {
		if p.Explain {
			p.Note = "not a vxlan frame, drop"
		} else {
			t.notVXLAN.Add(1)
		}
		return VerdictDrop
	}
	off := f.L3Offset() + f.IPv4.HeaderLen() + packet.UDPHeaderLen
	if len(p.Data) < off+vxlanHeaderLen+packet.EthernetHeaderLen {
		if p.Explain {
			p.Note = "truncated vxlan frame, drop"
		} else {
			t.notVXLAN.Add(1)
		}
		return VerdictDrop
	}
	vx := p.Data[off : off+vxlanHeaderLen]
	vni := binary.BigEndian.Uint32(vx[4:8]) >> 8
	if vx[0]&vxlanFlagVNI == 0 || vni != t.cfg.VNI&0xffffff {
		if p.Explain {
			p.Note = fmt.Sprintf("vni %d != %d, drop", vni, t.cfg.VNI)
		} else {
			t.badVNI.Add(1)
		}
		return VerdictDrop
	}
	p.Data = p.Mem.Shrink(p.Data, off+vxlanHeaderLen)
	if err := packet.Decode(p.Data, f); err != nil {
		if p.Explain {
			p.Note = "inner frame malformed, drop"
		} else {
			t.notVXLAN.Add(1)
		}
		return VerdictDrop
	}
	if p.Explain {
		p.Note = fmt.Sprintf("vni %d, inner exposed", vni)
	} else {
		t.decapped.Add(1)
	}
	return VerdictContinue
}

// StateSummary implements Stage.
func (t *TunnelDecap) StateSummary() StateSummary {
	return StateSummary{Counters: map[string]uint64{
		"decapped":  t.decapped.Load(),
		"not_vxlan": t.notVXLAN.Load(),
		"bad_vni":   t.badVNI.Load(),
	}}
}
