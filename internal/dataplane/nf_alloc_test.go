//go:build !race

package dataplane

import (
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/zof"
)

// TestNFConntrackHitZeroAlloc pins the steady-state allocation count
// of the batched walk through a conntrack stage at zero on the hit
// path: the stage resolves each frame with one shard lookup and touches
// counters in place, so steering traffic through nf:1 costs no
// allocations once the entry exists. Excluded from race builds, where
// allocation counts reflect instrumentation rather than the datapath.
func TestNFConntrackHitZeroAlloc(t *testing.T) {
	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
	sw.AddPort(1, "", 1000)
	sw.AddPort(2, "", 1000).SetTx(func([]byte) {})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Hour})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 1, zof.NF(1), zof.Output(2))

	burst := make([][]byte, 32)
	fr := udpFrame(t, hostA, hostB, 40, 50, "alloc")
	for i := range burst {
		burst[i] = fr
	}
	// Warm the pools, the microflow cache, and the conntrack entry
	// (first frame creates it; everything after is a hit).
	for i := 0; i < 8; i++ {
		sw.HandleBurst(1, burst)
	}
	if ct.Entries() != 1 {
		t.Fatalf("entries = %d after warmup", ct.Entries())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sw.HandleBurst(1, burst)
	}); allocs != 0 {
		t.Fatalf("conntrack-hit HandleBurst allocates %.1f/op steady state, want 0", allocs)
	}
	// The 1-frame wrapper must stay clean through the stage too.
	sw.HandleFrame(1, fr)
	if allocs := testing.AllocsPerRun(100, func() {
		sw.HandleFrame(1, fr)
	}); allocs != 0 {
		t.Fatalf("conntrack-hit HandleFrame allocates %.1f/op steady state, want 0", allocs)
	}
}
