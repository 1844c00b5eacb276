package packet

import "encoding/binary"

// The rewrite kernel: in-place IPv4 and TCP/UDP header edits that keep
// the frame bytes, the decoded view and the checksums in step. The
// datapath's set-field actions and the NAT stage both rewrite through
// it. data must be the writable bytes f was decoded from; the address
// and TOS setters need LayerIPv4, the port setters LayerIPv4 and one
// of LayerTCP/LayerUDP — callers gate on the layers before they make
// the bytes writable.

// L3Offset returns the offset of the first byte past the L2 headers.
func (f *Frame) L3Offset() int {
	if f.Has(LayerVLAN) {
		return EthernetHeaderLen + Dot1QHeaderLen
	}
	return EthernetHeaderLen
}

// SetIPv4Src rewrites the IPv4 source address.
func (f *Frame) SetIPv4Src(data []byte, ip IPv4Addr) {
	l3 := f.L3Offset()
	copy(data[l3+12:l3+16], ip[:])
	f.IPv4.Src = ip
	f.fixIPChecksum(data, l3)
	f.fixL4Checksum(data, l3)
}

// SetIPv4Dst rewrites the IPv4 destination address.
func (f *Frame) SetIPv4Dst(data []byte, ip IPv4Addr) {
	l3 := f.L3Offset()
	copy(data[l3+16:l3+20], ip[:])
	f.IPv4.Dst = ip
	f.fixIPChecksum(data, l3)
	f.fixL4Checksum(data, l3)
}

// SetIPv4TOS rewrites the IPv4 type-of-service byte.
func (f *Frame) SetIPv4TOS(data []byte, tos uint8) {
	l3 := f.L3Offset()
	data[l3+1] = tos
	f.IPv4.TOS = tos
	f.fixIPChecksum(data, l3)
}

// SetL4Src rewrites the TCP/UDP source port.
func (f *Frame) SetL4Src(data []byte, port uint16) {
	l3 := f.L3Offset()
	off := l3 + f.IPv4.HeaderLen()
	binary.BigEndian.PutUint16(data[off:off+2], port)
	if f.Has(LayerTCP) {
		f.TCP.SrcPort = port
	} else {
		f.UDP.SrcPort = port
	}
	f.fixL4Checksum(data, l3)
}

// SetL4Dst rewrites the TCP/UDP destination port.
func (f *Frame) SetL4Dst(data []byte, port uint16) {
	l3 := f.L3Offset()
	off := l3 + f.IPv4.HeaderLen()
	binary.BigEndian.PutUint16(data[off+2:off+4], port)
	if f.Has(LayerTCP) {
		f.TCP.DstPort = port
	} else {
		f.UDP.DstPort = port
	}
	f.fixL4Checksum(data, l3)
}

// fixIPChecksum recomputes the IPv4 header checksum in place.
func (f *Frame) fixIPChecksum(data []byte, l3 int) {
	h := data[l3 : l3+f.IPv4.HeaderLen()]
	h[10], h[11] = 0, 0
	sum := Checksum(h, 0)
	binary.BigEndian.PutUint16(h[10:12], sum)
	f.IPv4.Checksum = sum
}

// fixL4Checksum recomputes the TCP/UDP checksum in place; a UDP
// checksum of zero (disabled) stays zero.
func (f *Frame) fixL4Checksum(data []byte, l3 int) {
	if !f.Has(LayerTCP | LayerUDP) {
		return
	}
	seg := data[l3+f.IPv4.HeaderLen():]
	// Trim to the IP total length so trailing padding is excluded.
	segLen := int(f.IPv4.Length) - f.IPv4.HeaderLen()
	if segLen >= 0 && segLen <= len(seg) {
		seg = seg[:segLen]
	}
	if f.Has(LayerTCP) {
		seg[16], seg[17] = 0, 0
		sum := TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, ProtoTCP)
		binary.BigEndian.PutUint16(seg[16:18], sum)
		f.TCP.Checksum = sum
		return
	}
	if binary.BigEndian.Uint16(seg[6:8]) == 0 {
		return // checksum disabled
	}
	seg[6], seg[7] = 0, 0
	sum := TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, ProtoUDP)
	if sum == 0 {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(seg[6:8], sum)
	f.UDP.Checksum = sum
}
