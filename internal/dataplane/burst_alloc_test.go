//go:build !race

package dataplane

import (
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/zof"
)

// TestHandleBurstZeroAlloc pins the steady-state allocation count of
// the batched pipeline walk at zero for every way a rule can make the
// burst's execs copy a frame: not at all, an in-place rewrite, two
// reframes in a row (by the native VLAN actions and by NF stages), and
// group fan-out into nested execs with and without rewrites of their
// own. Excluded from race builds, where allocation counts reflect
// instrumentation rather than the datapath.
func TestHandleBurstZeroAlloc(t *testing.T) {
	tun := nf.TunnelConfig{VNI: 7, LocalIP: packet.IPv4Addr{192, 0, 2, 1}, RemoteIP: packet.IPv4Addr{192, 0, 2, 2}}
	for _, tc := range []struct {
		name  string
		rule  func(sw *Switch) []zof.Action
		flows int // distinct microflows in the burst
		sends int // transmissions a frame makes
	}{
		{"output", func(*Switch) []zof.Action {
			return []zof.Action{zof.Output(2)}
		}, 1, 1},
		{"set-field", func(*Switch) []zof.Action {
			return []zof.Action{zof.SetTPDst(9), zof.Output(2)}
		}, 1, 1},
		{"vlan push strip", func(*Switch) []zof.Action {
			return []zof.Action{zof.SetVLAN(42), zof.Output(2), zof.StripVLAN(), zof.Output(3)}
		}, 1, 2},
		{"nf encap decap", func(sw *Switch) []zof.Action {
			for id, st := range []nf.Stage{nf.NewTunnelEncap(tun), nf.NewTunnelDecap(tun)} {
				if err := sw.RegisterStage(uint32(id+1), st); err != nil {
					t.Fatal(err)
				}
			}
			return []zof.Action{zof.NF(1), zof.Output(2), zof.NF(2), zof.Output(3)}
		}, 1, 2},
		{"group select", func(sw *Switch) []zof.Action {
			sw.AddGroup(GroupDesc{ID: 1, Type: GroupSelect, Buckets: []Bucket{
				{Actions: []zof.Action{zof.Output(2)}},
				{Actions: []zof.Action{zof.Output(3)}},
			}})
			return []zof.Action{zof.Group(1)}
		}, 8, 1},
		{"group all rewriting", func(sw *Switch) []zof.Action {
			sw.AddGroup(GroupDesc{ID: 1, Type: GroupAll, Buckets: []Bucket{
				{Actions: []zof.Action{zof.SetTPDst(9), zof.Output(2)}},
				{Actions: []zof.Action{zof.SetVLAN(7), zof.Output(3)}},
			}})
			return []zof.Action{zof.Group(1)}
		}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
			sw.AddPort(1, "", 1000)
			var sent int
			for no := uint32(2); no <= 3; no++ {
				sw.AddPort(no, "", 1000).SetTx(func([]byte) { sent++ })
			}
			addFlow(t, sw, zof.MatchAll(), 1, tc.rule(sw)...)

			burst := make([][]byte, 32)
			for i := range burst {
				burst[i] = udpFrame(t, hostA, hostB, uint16(40+i%tc.flows), 50, "alloc")
			}
			// Warm the burst pool (scratch, execs, exec buffers) and the
			// microflow cache before counting.
			for i := 0; i < 8; i++ {
				sw.HandleBurst(1, burst)
			}
			if want := 8 * len(burst) * tc.sends; sent != want {
				t.Fatalf("the rule transmitted %d frames, want %d", sent, want)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				sw.HandleBurst(1, burst)
			}); allocs != 0 {
				t.Fatalf("HandleBurst allocates %.1f/op steady state, want 0", allocs)
			}
			// The 1-frame wrapper must stay clean too.
			sw.HandleFrame(1, burst[0])
			if allocs := testing.AllocsPerRun(100, func() {
				sw.HandleFrame(1, burst[0])
			}); allocs != 0 {
				t.Fatalf("HandleFrame allocates %.1f/op steady state, want 0", allocs)
			}
		})
	}
}
