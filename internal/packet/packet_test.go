package packet

import (
	"bytes"
	"testing"
)

func buildIPv4UDP(t *testing.T, payload []byte) []byte {
	t.Helper()
	b := NewBuffer(128)
	b.AppendBytes(payload)
	udp := UDP{SrcPort: 5000, DstPort: 53}
	udp.SerializeToWithChecksum(b, IPv4Addr{10, 0, 0, 1}, IPv4Addr{10, 0, 0, 2})
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: IPv4Addr{10, 0, 0, 1}, Dst: IPv4Addr{10, 0, 0, 2}}
	ip.SerializeTo(b)
	eth := Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

func TestDecodeIPv4UDP(t *testing.T) {
	payload := []byte("hello, zen")
	wire := buildIPv4UDP(t, payload)

	var f Frame
	if err := Decode(wire, &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, l := range []Layer{LayerEthernet, LayerIPv4, LayerUDP, LayerPayload} {
		if !f.Has(l) {
			t.Errorf("missing layer %v", l)
		}
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		t.Errorf("ethertype = %#x", f.Eth.EtherType)
	}
	if f.IPv4.Src != (IPv4Addr{10, 0, 0, 1}) || f.IPv4.Dst != (IPv4Addr{10, 0, 0, 2}) {
		t.Errorf("ip addrs = %v -> %v", f.IPv4.Src, f.IPv4.Dst)
	}
	if f.IPv4.TTL != 64 || f.IPv4.Protocol != ProtoUDP {
		t.Errorf("ttl/proto = %d/%d", f.IPv4.TTL, f.IPv4.Protocol)
	}
	if f.UDP.SrcPort != 5000 || f.UDP.DstPort != 53 {
		t.Errorf("ports = %d -> %d", f.UDP.SrcPort, f.UDP.DstPort)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload = %q, want %q", f.Payload, payload)
	}
	if !f.IPv4.VerifyChecksum(wire[EthernetHeaderLen:]) {
		t.Error("IPv4 checksum does not verify")
	}
	seg := wire[EthernetHeaderLen+IPv4MinHeaderLen:]
	if got := TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, ProtoUDP); got != 0 {
		t.Errorf("UDP checksum residue = %#x, want 0", got)
	}
}

func TestDecodeIPv4TCPWithOptions(t *testing.T) {
	b := NewBuffer(128)
	b.AppendBytes([]byte("GET /"))
	tcp := TCP{SrcPort: 33000, DstPort: 80, Seq: 7, Ack: 9, Flags: TCPSyn | TCPAck,
		Window: 1024, Options: []byte{2, 4, 5, 0xb4}} // MSS option
	tcp.SerializeToWithChecksum(b, IPv4Addr{1, 1, 1, 1}, IPv4Addr{2, 2, 2, 2})
	ip := IPv4{TTL: 3, Protocol: ProtoTCP, Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2}}
	ip.SerializeTo(b)
	eth := Ethernet{EtherType: EtherTypeIPv4}
	eth.SerializeTo(b)

	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerTCP) {
		t.Fatal("TCP layer not decoded")
	}
	if f.TCP.Flags != TCPSyn|TCPAck {
		t.Errorf("flags = %#x", f.TCP.Flags)
	}
	if !bytes.Equal(f.TCP.Options, []byte{2, 4, 5, 0xb4}) {
		t.Errorf("options = %x", f.TCP.Options)
	}
	if string(f.Payload) != "GET /" {
		t.Errorf("payload = %q", f.Payload)
	}
	seg := b.Bytes()[EthernetHeaderLen+IPv4MinHeaderLen:]
	if got := TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, ProtoTCP); got != 0 {
		t.Errorf("TCP checksum residue = %#x, want 0", got)
	}
}

func TestDecodeVLAN(t *testing.T) {
	b := NewBuffer(64)
	arp := ARP{Op: ARPRequest, SenderHW: MAC{1}, SenderIP: IPv4Addr{10, 0, 0, 1}, TargetIP: IPv4Addr{10, 0, 0, 9}}
	arp.SerializeTo(b)
	tag := Dot1Q{Priority: 5, VLAN: 42, EtherType: EtherTypeARP}
	tag.SerializeTo(b)
	eth := Ethernet{Dst: Broadcast, Src: MAC{1}, EtherType: EtherTypeVLAN}
	eth.SerializeTo(b)

	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerVLAN) || !f.Has(LayerARP) {
		t.Fatalf("layers = %#x", f.Layers)
	}
	if f.VLAN.VLAN != 42 || f.VLAN.Priority != 5 {
		t.Errorf("vlan = %+v", f.VLAN)
	}
	if f.EtherType() != EtherTypeARP {
		t.Errorf("effective ethertype = %#x", f.EtherType())
	}
	if f.ARP.Op != ARPRequest || f.ARP.TargetIP != (IPv4Addr{10, 0, 0, 9}) {
		t.Errorf("arp = %+v", f.ARP)
	}
}

func TestARPHelpers(t *testing.T) {
	eth, req := NewARPRequest(MAC{0xaa}, IPv4Addr{10, 0, 0, 1}, IPv4Addr{10, 0, 0, 2})
	if eth.Dst != Broadcast || req.Op != ARPRequest {
		t.Fatalf("request = %+v %+v", eth, req)
	}
	reth, rep := NewARPReply(MAC{0xbb}, IPv4Addr{10, 0, 0, 2}, &req)
	if reth.Dst != req.SenderHW || rep.Op != ARPReply {
		t.Fatalf("reply = %+v %+v", reth, rep)
	}
	if rep.TargetIP != req.SenderIP || rep.SenderIP != (IPv4Addr{10, 0, 0, 2}) {
		t.Fatalf("reply addressing = %+v", rep)
	}
}

func TestDecodeLLDP(t *testing.T) {
	b := NewBuffer(64)
	l := LLDP{ChassisID: 0xdeadbeefcafe, PortID: 17, TTL: 120}
	l.SerializeTo(b)
	eth := Ethernet{Dst: LLDPMulticast, Src: MAC{2}, EtherType: EtherTypeLLDP}
	eth.SerializeTo(b)

	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerLLDP) {
		t.Fatal("LLDP not decoded")
	}
	if f.LLDP != l {
		t.Errorf("lldp = %+v, want %+v", f.LLDP, l)
	}
}

func TestDecodeICMPEcho(t *testing.T) {
	b := NewBuffer(64)
	b.AppendBytes([]byte("ping-data"))
	ic := ICMPv4{Type: ICMPv4EchoRequest, ID: 99, Seq: 3}
	ic.SerializeTo(b)
	icmpBytes := append([]byte(nil), b.Bytes()...)
	ip := IPv4{TTL: 64, Protocol: ProtoICMP, Src: IPv4Addr{1, 0, 0, 1}, Dst: IPv4Addr{1, 0, 0, 2}}
	ip.SerializeTo(b)
	eth := Ethernet{EtherType: EtherTypeIPv4}
	eth.SerializeTo(b)

	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerICMPv4) {
		t.Fatal("ICMP not decoded")
	}
	if f.ICMP.Type != ICMPv4EchoRequest || f.ICMP.ID != 99 || f.ICMP.Seq != 3 {
		t.Errorf("icmp = %+v", f.ICMP)
	}
	if !f.ICMP.VerifyChecksum(icmpBytes) {
		t.Error("ICMP checksum does not verify")
	}
}

func TestDecodeIPv6UDP(t *testing.T) {
	b := NewBuffer(128)
	b.AppendBytes([]byte("v6"))
	udp := UDP{SrcPort: 1, DstPort: 2}
	udp.SerializeTo(b)
	var src, dst IPv6Addr
	src[15], dst[15] = 1, 2
	ip6 := IPv6{TrafficClass: 0x20, FlowLabel: 0xabcde, NextHeader: ProtoUDP, HopLimit: 5, Src: src, Dst: dst}
	ip6.SerializeTo(b)
	eth := Ethernet{EtherType: EtherTypeIPv6}
	eth.SerializeTo(b)

	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerIPv6) || !f.Has(LayerUDP) {
		t.Fatalf("layers = %#x", f.Layers)
	}
	if f.IPv6.FlowLabel != 0xabcde || f.IPv6.TrafficClass != 0x20 || f.IPv6.HopLimit != 5 {
		t.Errorf("ipv6 = %+v", f.IPv6)
	}
	if string(f.Payload) != "v6" {
		t.Errorf("payload = %q", f.Payload)
	}
}

func TestDecodeTruncated(t *testing.T) {
	wire := buildIPv4UDP(t, []byte("0123456789"))
	// Every proper prefix shorter than the full frame must either decode
	// with fewer layers or fail cleanly — never panic.
	for n := 0; n < len(wire); n++ {
		var f Frame
		err := Decode(wire[:n], &f)
		if n < EthernetHeaderLen && err == nil {
			t.Errorf("len %d: want error for sub-Ethernet frame", n)
		}
		_ = err
	}
}

func TestDecodeMalformed(t *testing.T) {
	wire := buildIPv4UDP(t, []byte("payload"))
	bad := append([]byte(nil), wire...)
	bad[EthernetHeaderLen] = 0x54 // IP version 5
	var f Frame
	if err := Decode(bad, &f); err == nil {
		t.Error("want error for bad IP version")
	}
	bad = append([]byte(nil), wire...)
	bad[EthernetHeaderLen] = 0x41 // IHL = 4 words < 5
	if err := Decode(bad, &f); err == nil {
		t.Error("want error for bad IHL")
	}
	bad = append([]byte(nil), wire...)
	bad[EthernetHeaderLen+3] = 0xff // total length beyond frame
	bad[EthernetHeaderLen+2] = 0xff
	if err := Decode(bad, &f); err == nil {
		t.Error("want error for oversized total length")
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	b := NewBuffer(64)
	b.AppendBytes([]byte{1, 2, 3})
	eth := Ethernet{EtherType: 0x1234}
	eth.SerializeTo(b)
	var f Frame
	if err := Decode(b.Bytes(), &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !f.Has(LayerPayload) || len(f.Payload) != 3 {
		t.Errorf("payload = %v layers = %#x", f.Payload, f.Layers)
	}
}

func TestMACHelpers(t *testing.T) {
	m := MACFromUint64(0x0000010203040506)
	if m != (MAC{1, 2, 3, 4, 5, 6}) {
		t.Errorf("MACFromUint64 = %v", m)
	}
	if m.Uint64() != 0x010203040506 {
		t.Errorf("Uint64 = %#x", m.Uint64())
	}
	if m.String() != "01:02:03:04:05:06" {
		t.Errorf("String = %q", m.String())
	}
	if !Broadcast.IsBroadcast() || m.IsBroadcast() {
		t.Error("IsBroadcast misbehaves")
	}
	if !(MAC{0x01}).IsMulticast() || (MAC{0x02}).IsMulticast() {
		t.Error("IsMulticast misbehaves")
	}
}

func TestIPv4AddrHelpers(t *testing.T) {
	a := IPv4Addr{192, 168, 1, 2}
	if a.String() != "192.168.1.2" {
		t.Errorf("String = %q", a.String())
	}
	if IPv4FromUint32(a.Uint32()) != a {
		t.Error("Uint32 round trip failed")
	}
}

func TestBufferGrowth(t *testing.T) {
	b := NewBuffer(2)
	payload := bytes.Repeat([]byte{0xab}, 300)
	b.AppendBytes(payload)
	hdr := b.Prepend(40) // forces headroom growth
	for i := range hdr {
		hdr[i] = byte(i)
	}
	out := b.Bytes()
	if len(out) != 340 {
		t.Fatalf("len = %d", len(out))
	}
	if out[39] != 39 || out[40] != 0xab {
		t.Errorf("layout wrong: %x %x", out[39], out[40])
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("after Reset len = %d", b.Len())
	}
}

func TestFlowKeyExtraction(t *testing.T) {
	wire := buildIPv4UDP(t, []byte("x"))
	var f Frame
	if err := Decode(wire, &f); err != nil {
		t.Fatal(err)
	}
	var k FlowKey
	k.Extract(&f)
	if k.Proto != ProtoUDP || k.SrcPort != 5000 || k.DstPort != 53 {
		t.Errorf("key = %+v", k)
	}
	r := k.Reverse()
	if r.SrcPort != 53 || r.DstPort != 5000 {
		t.Errorf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse is not identity")
	}
	if k.FastHash() == r.FastHash() {
		t.Error("directions should hash differently")
	}
	if k.SymmetricHash() != r.SymmetricHash() {
		t.Error("symmetric hash should match both directions")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	// Odd length input exercises the trailing-byte path.
	if got := Checksum([]byte{0x01}, 0); got != ^uint16(0x0100) {
		t.Errorf("odd checksum = %#x", got)
	}
}

func TestLayerString(t *testing.T) {
	if LayerTCP.String() != "TCP" || LayerEthernet.String() != "Ethernet" {
		t.Error("layer names wrong")
	}
	if Layer(0x8000).String() == "" {
		t.Error("unknown layer should still render")
	}
}

func BenchmarkDecodeReuse(b *testing.B) {
	wire := buildIPv4UDP(&testing.T{}, bytes.Repeat([]byte{0}, 64))
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(wire, &f); err != nil {
			b.Fatal(err)
		}
	}
}
