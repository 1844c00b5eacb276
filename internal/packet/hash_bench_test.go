package packet_test

import (
	"testing"

	"repro/internal/flowtable"
	"repro/internal/packet"
)

var hashSink uint64

// BenchmarkFlowKeyHash times the per-frame hashing the datapath pays,
// on the key of a decoded 64-byte UDP frame: FastHash (under every
// microcache key), SymmetricHash (select groups, the tunnel's entropy
// port) and the microflow key cut and hashed the way runBurst and
// zenbench's flowtable.key_ns replay do it. The source port changes
// every iteration, as it does from frame to frame.
func BenchmarkFlowKeyHash(b *testing.B) {
	buf := packet.NewBuffer(64)
	buf.AppendBytes(make([]byte, 22))
	src, dst := packet.IPv4Addr{10, 1, 2, 3}, packet.IPv4Addr{172, 16, 4, 5}
	udp := packet.UDP{SrcPort: 4242, DstPort: 53}
	udp.SerializeToWithChecksum(buf, src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ip.SerializeTo(buf)
	eth := packet.Ethernet{Dst: packet.MACFromUint64(2), Src: packet.MACFromUint64(1), EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(buf)
	var f packet.Frame
	if err := packet.Decode(buf.Bytes(), &f); err != nil {
		b.Fatal(err)
	}
	var k packet.FlowKey
	k.Extract(&f)

	b.Run("FastHash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.SrcPort = uint16(i)
			hashSink += k.FastHash()
		}
	})
	b.Run("SymmetricHash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.SrcPort = uint16(i)
			hashSink += k.SymmetricHash()
		}
	})
	b.Run("MakeCacheKey+Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.UDP.SrcPort = uint16(i)
			ck := flowtable.MakeCacheKey(&f, 1)
			hashSink += ck.Hash()
		}
	})
}
