//go:build !race

package apps

import "testing"

// TestRoutingPacketInAllocs pins the controller's share of a flow
// set-up's allocations: BenchmarkRoutingPacketIn — path lookup, five
// FlowMods, four fences and the stub switches decoding what they get —
// stays at or under 20 allocs per set-up.
func TestRoutingPacketInAllocs(t *testing.T) {
	r := testing.Benchmark(BenchmarkRoutingPacketIn)
	if r.N == 0 {
		t.Fatal("BenchmarkRoutingPacketIn failed")
	}
	if n := r.AllocsPerOp(); n > 20 {
		t.Errorf("routing a packet-in: %d allocs per set-up, want ≤ 20", n)
	}
}
