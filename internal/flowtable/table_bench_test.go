package flowtable

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/zof"
)

// benchTable installs n rules over four mask shapes (a /24, a /16, a
// /32+proto and a /32+proto+port, the mix of the benchmark's miss_storm
// workload) and returns one frame per rule that hits it.
func benchTable(tb testing.TB, n int) (*Table, []*packet.Frame) {
	tbl := NewTable(0)
	frames := make([]*packet.Frame, n)
	for i := range frames {
		k := i / 4
		hi, lo := byte(k>>8), byte(k)
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEtherType
		m.EtherType = packet.EtherTypeIPv4
		var dst packet.IPv4Addr
		switch i % 4 {
		case 0:
			dst = packet.IPv4Addr{20, hi, lo, 7}
			m.IPDst, m.DstPrefix = packet.IPv4Addr{20, hi, lo, 0}, 24
		case 1:
			dst = packet.IPv4Addr{30 + hi, lo, 7, 7}
			m.IPDst, m.DstPrefix = packet.IPv4Addr{30 + hi, lo, 0, 0}, 16
		case 2:
			dst = packet.IPv4Addr{40, hi, lo, 1}
			m.IPDst, m.DstPrefix = dst, 32
			m.Wildcards &^= zof.WIPProto
			m.IPProto = packet.ProtoUDP
		case 3:
			dst = packet.IPv4Addr{45, hi, lo, 1}
			m.IPDst, m.DstPrefix = dst, 32
			m.Wildcards &^= zof.WIPProto | zof.WTPDst
			m.IPProto, m.TPDst = packet.ProtoUDP, 4000
		}
		e := &Entry{Match: m, Priority: uint16(100 + i%8), Actions: []zof.Action{zof.Output(1)}}
		if err := tbl.Add(e, false, t0); err != nil {
			tb.Fatal(err)
		}
		frames[i] = mkFrame(tb, packet.IPv4Addr{10, 1, 2, 3}, dst, 999, 4000)
	}
	return tbl, frames
}

// BenchmarkTableLookup is the cost of one microflow-cache miss, which
// must not grow with the number of rules, only with the number of
// shapes; BenchmarkTableMod is one FlowMod (an Add or a DeleteStrict of
// a rule in a shape of its own), which must not copy the table.
func BenchmarkTableLookup(b *testing.B) {
	for _, n := range []int{16, 2048, 65536} {
		tbl, frames := benchTable(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tbl.Lookup(frames[i*7919%n], 1, 64, t0) == nil {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkTableMod(b *testing.B) {
	for _, n := range []int{16, 2048, 65536} {
		tbl, _ := benchTable(b, n)
		m := dstMatch(packet.IPv4Addr{250, 0, 0, 1}, 32, 1).Match
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += 2 {
				_ = tbl.Add(&Entry{Match: m, Priority: 1}, false, t0)
				tbl.DeleteStrict(m, 1)
			}
		})
	}
}

// macPairRules are n rules of one shape, a MAC pair each toward one
// destination: what flow_setup's far edge holds before its flush.
func macPairRules(n int) (rules []*Entry, dst zof.Match) {
	dst = zof.MatchAll()
	dst.Wildcards &^= zof.WEthDst
	dst.EthDst = packet.MACFromUint64(0xb)
	for i := range n {
		m := dst
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc = packet.MACFromUint64(uint64(0x10000 + i))
		rules = append(rules, &Entry{Match: m, Priority: 100, Actions: []zof.Action{zof.Output(2)}})
	}
	return rules, dst
}

func fill(tb testing.TB, tbl *Table, rules []*Entry) *Table {
	for _, e := range rules {
		if err := tbl.Add(e, false, t0); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkTableFill adds n MAC-pair rules to an empty table, one
// FlowAdd at a time; BenchmarkTableFlush removes them in one wildcard
// delete. Together they are a flow_setup cycle's table writes.
func BenchmarkTableFill(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rules, _ := macPairRules(n)
				b.StartTimer()
				fill(b, NewTable(0), rules)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/add")
		})
	}
}

func BenchmarkTableFlush(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rules, dst := macPairRules(n)
				tbl := fill(b, NewTable(0), rules)
				b.StartTimer()
				if got := tbl.Delete(dst); len(got) != n {
					b.Fatalf("flush removed %d rules, want %d", len(got), n)
				}
			}
		})
	}
}
