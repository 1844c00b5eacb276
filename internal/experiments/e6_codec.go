package experiments

import (
	"fmt"
	"testing"

	"repro/internal/packet"
)

// CodecBench is one measured operation of the packet substrate.
type CodecBench struct {
	Name string // sub-benchmark name under BenchmarkE6Codec
	Op   string // row label in the E6 table
	Run  func(*testing.B)
}

// CodecBenches returns the E6 operations for one frame size: decode,
// decode+flow-key, and full-stack serialize. E6Codec times them with
// testing.Benchmark; BenchmarkE6Codec runs them as sub-benchmarks.
func CodecBenches(size int) []CodecBench {
	wire := udpFrame(size, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 5353)
	payload := len(wire) - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - packet.UDPHeaderLen
	return []CodecBench{
		{"decode", "decode", func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"flowkey", "decode+flowkey", func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
				var k packet.FlowKey
				k.Extract(&f)
				_ = k.FastHash()
			}
		}},
		{"serialize", "serialize", func(b *testing.B) {
			buf := packet.NewBuffer(64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				buf.Append(payload)
				udp := packet.UDP{SrcPort: 1, DstPort: 2}
				udp.SerializeTo(buf)
				ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
				ip.SerializeTo(buf)
				eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
				eth.SerializeTo(buf)
			}
		}},
	}
}

func runE6(Params) (*Table, any, error) { return E6Codec(), nil, nil }

// E6Codec measures the packet substrate: decode, decode+flow-key, and
// full-stack serialize, per frame size, with allocations per op.
// Shape: zero allocations on the decode paths; decode throughput in
// the millions per second per core for small frames.
func E6Codec() *Table {
	t := newTable("e6", "frame", "op", "ns/op", "allocs/op", "Mops/s")
	t.Notes = []string{"expected shape: 0 allocs/op on decode; small-frame decode > 10 Mops/s"}
	for _, size := range []int{64, 512, 1500} {
		for _, cb := range CodecBenches(size) {
			r := testing.Benchmark(cb.Run)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			mops := 0.0
			if ns > 0 {
				mops = 1000 / ns
			}
			t.AddRow(fmt.Sprintf("%dB", size), cb.Op, f1(ns), fmt.Sprintf("%d", r.AllocsPerOp()), f2(mops))
		}
	}
	return t
}
