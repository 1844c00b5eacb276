package packet

import "encoding/binary"

// The rewrite kernel: in-place IPv4 and TCP/UDP header edits that keep
// the frame bytes, the decoded view and the checksums in step. The
// datapath's set-field actions and the NAT stage both rewrite through
// it. data must be the writable bytes f was decoded from; the address
// and TOS setters need LayerIPv4, the port setters LayerIPv4 and one
// of LayerTCP/LayerUDP — callers gate on the layers before they make
// the bytes writable.
//
// Checksums are adjusted, never recomputed (RFC 1624 eqn. 3,
// HC' = ~(~HC + ~m + m')): an edit costs the same whatever the payload.
// A frame that arrived with valid checksums leaves byte-identical to a
// from-scratch serialisation of the edited fields; one that arrived
// wrong leaves wrong by the same amount, so the receiver still catches
// what the sender or the wire corrupted (RFC 3022 §4.1).

// L3Offset returns the offset of the first byte past the L2 headers.
func (f *Frame) L3Offset() int {
	if f.Has(LayerVLAN) {
		return EthernetHeaderLen + Dot1QHeaderLen
	}
	return EthernetHeaderLen
}

// SetIPv4Src rewrites the IPv4 source address.
func (f *Frame) SetIPv4Src(data []byte, ip IPv4Addr) { f.setIPv4Addr(data, 12, &f.IPv4.Src, ip) }

// SetIPv4Dst rewrites the IPv4 destination address.
func (f *Frame) SetIPv4Dst(data []byte, ip IPv4Addr) { f.setIPv4Addr(data, 16, &f.IPv4.Dst, ip) }

// setIPv4Addr writes the address at header offset at and into view. The
// header checksum and, through the pseudo-header, TCP/UDP's both sum it.
func (f *Frame) setIPv4Addr(data []byte, at int, view *IPv4Addr, ip IPv4Addr) {
	be, l3 := binary.BigEndian, f.L3Offset()
	off := l3 + at
	delta := sumDelta(be.Uint16(data[off:]), be.Uint16(ip[:])) +
		sumDelta(be.Uint16(data[off+2:]), be.Uint16(ip[2:]))
	copy(data[off:off+4], ip[:])
	*view = ip
	f.IPv4.Checksum = adjustChecksum(data, l3+10, delta)
	f.adjustL4Checksum(data, delta)
}

// SetIPv4TOS rewrites the IPv4 type-of-service byte.
func (f *Frame) SetIPv4TOS(data []byte, tos uint8) {
	l3 := f.L3Offset()
	delta := sumDelta(uint16(data[l3+1]), uint16(tos)) // the version/IHL byte of the word is unchanged
	data[l3+1] = tos
	f.IPv4.TOS = tos
	f.IPv4.Checksum = adjustChecksum(data, l3+10, delta)
}

// SetL4Src rewrites the TCP/UDP source port.
func (f *Frame) SetL4Src(data []byte, port uint16) {
	f.setL4Port(data, 0, &f.TCP.SrcPort, &f.UDP.SrcPort, port)
}

// SetL4Dst rewrites the TCP/UDP destination port.
func (f *Frame) SetL4Dst(data []byte, port uint16) {
	f.setL4Port(data, 2, &f.TCP.DstPort, &f.UDP.DstPort, port)
}

// setL4Port writes the port at transport-header offset at and into the
// view of whichever of TCP and UDP the frame carries.
func (f *Frame) setL4Port(data []byte, at int, tcp, udp *uint16, port uint16) {
	off := f.L3Offset() + f.IPv4.HeaderLen() + at
	delta := sumDelta(binary.BigEndian.Uint16(data[off:]), port)
	binary.BigEndian.PutUint16(data[off:], port)
	if f.Has(LayerTCP) {
		*tcp = port
	} else {
		*udp = port
	}
	f.adjustL4Checksum(data, delta)
}

// sumDelta is what replacing the 16-bit word old by new adds to a
// ones'-complement sum: ~m + m'. Deltas of several words add up.
func sumDelta(old, new uint16) uint32 { return uint32(^old) + uint32(new) }

// adjustChecksum applies delta to the checksum stored at data[at:]
// and returns the new value.
func adjustChecksum(data []byte, at int, delta uint32) uint16 {
	sum := uint32(^binary.BigEndian.Uint16(data[at:])) + delta
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	hc := ^uint16(sum)
	binary.BigEndian.PutUint16(data[at:], hc)
	return hc
}

// adjustL4Checksum adjusts the TCP or UDP checksum, if the frame has
// one. A UDP checksum of zero (disabled) stays zero, and one that
// adjusts to zero is sent as all ones (RFC 768).
func (f *Frame) adjustL4Checksum(data []byte, delta uint32) {
	l4 := f.L3Offset() + f.IPv4.HeaderLen()
	switch {
	case f.Has(LayerTCP):
		f.TCP.Checksum = adjustChecksum(data, l4+16, delta)
	case f.Has(LayerUDP) && data[l4+6]|data[l4+7] != 0:
		if f.UDP.Checksum = adjustChecksum(data, l4+6, delta); f.UDP.Checksum == 0 {
			f.UDP.Checksum = 0xffff
			data[l4+6], data[l4+7] = 0xff, 0xff
		}
	}
}
