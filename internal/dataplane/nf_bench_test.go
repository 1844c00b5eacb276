package dataplane

import (
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/zof"
)

// BenchmarkNFChainBurst times one HandleBurst of 32 frames through the
// canonical chain — conntrack, SNAT, VXLAN encap, output — over 1,024
// established 64-byte UDP flows, so the per-frame toll of the NF layer
// (hash, state lookup, header edits) reads from `go test -bench`
// without the zenbench harness. ns/frame is the figure to compare with
// zenbench's nf_chain dataplane.burst_ns.
func BenchmarkNFChainBurst(b *testing.B) {
	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
	sw.AddPort(1, "", 1000)
	sw.AddPort(2, "", 1000).SetTx(func([]byte) {})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Hour})
	stages := []nf.Stage{
		ct,
		nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPub}),
		nf.NewTunnelEncap(nf.TunnelConfig{
			VNI: 7, LocalIP: packet.IPv4Addr{192, 0, 2, 1}, RemoteIP: packet.IPv4Addr{192, 0, 2, 2},
			LocalMAC: packet.MACFromUint64(0x0a), RemoteMAC: packet.MACFromUint64(0x0b),
		}),
	}
	for i, st := range stages {
		if err := sw.RegisterStage(uint32(i+1), st); err != nil {
			b.Fatal(err)
		}
	}
	addFlow(b, sw, zof.MatchAll(), 10, zof.NF(1), zof.NF(2), zof.NF(3), zof.Output(2))

	const burstLen, flows = 32, 1024
	bursts := make([][][]byte, flows/burstLen)
	for i := range bursts {
		for j := 0; j < burstLen; j++ {
			n := i*burstLen + j
			src := packet.IPv4Addr{10, 1, byte(n >> 8), byte(n)}
			bursts[i] = append(bursts[i], udpFrame(b, src, packet.IPv4Addr{172, 16, 0, 9}, uint16(1024+n), 53, "0123456789abcdefgh"))
		}
		sw.HandleBurst(1, bursts[i]) // create the entries and bindings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandleBurst(1, bursts[i%len(bursts)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/burstLen, "ns/frame")
}
