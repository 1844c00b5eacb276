package dataplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/zof"
)

// burstParityFixture builds a switch over the standard 3-port test
// switch plus port 4, wired and down, and port 5, never wired. Traffic
// to B leaves on port 2, to A on port 3, to 10.0.0.3 on both through a
// group:all, to 10.0.0.4 and .5 on the ports that drop it.
func burstParityFixture(t *testing.T) (*Switch, map[uint32]*capture) {
	t.Helper()
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	caps[4] = &capture{}
	sw.AddPort(4, "", 1000).SetTx(caps[4].tx)
	sw.SetPortDown(4, true)
	sw.AddPort(5, "", 1000)
	sw.AddGroup(GroupDesc{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []zof.Action{zof.Output(2)}},
		{Actions: []zof.Action{zof.Output(3)}},
	}})
	for dst, act := range map[packet.IPv4Addr]zof.Action{
		hostB: zof.Output(2), hostA: zof.Output(3), {10, 0, 0, 3}: zof.Group(1),
		{10, 0, 0, 4}: zof.Output(4), {10, 0, 0, 5}: zof.Output(5),
	} {
		m := zof.MatchAll()
		m.IPDst, m.DstPrefix = dst, 32
		addFlow(t, sw, m, 10, act)
	}
	return sw, caps
}

// tableStats pulls table 0's lookup/match counters.
func tableStats(t *testing.T, sw *Switch) (lookups, matches uint64) {
	t.Helper()
	var rep *zof.StatsReply
	sw.Process(&zof.StatsRequest{Kind: zof.StatsTable}, 1,
		func(m zof.Message, _ uint32) { rep = m.(*zof.StatsReply) })
	if rep == nil || len(rep.Tables) == 0 {
		t.Fatal("no table stats")
	}
	return rep.Tables[0].LookupCount, rep.Tables[0].MatchedCount
}

// TestHandleBurstParity feeds the same mixed traffic — 37 frames: two
// microflows, a fan-out, frames for a down and for an unwired port, a
// miss and three malformed frames — to one switch per frame and to an
// identical switch as a single burst, and asserts every observable
// (deliveries, every port's stats, table accounting, flow counters)
// agrees.
func TestHandleBurstParity(t *testing.T) {
	kinds := [][]byte{
		udpFrame(t, hostA, hostB, 1000, 2000, "a->b"),
		udpFrame(t, hostB, hostA, 2000, 1000, "b->a, a longer frame"),
		udpFrame(t, hostA, packet.IPv4Addr{10, 0, 0, 3}, 1, 1, "fan-out"),
		udpFrame(t, hostA, packet.IPv4Addr{10, 0, 0, 4}, 1, 1, "down"),
		udpFrame(t, hostA, packet.IPv4Addr{10, 0, 0, 5}, 1, 1, "unwired"),
		udpFrame(t, hostA, packet.IPv4Addr{10, 9, 9, 9}, 1, 1, "miss"),
		{0xde, 0xad},
	}
	burst := make([][]byte, 37)
	for i := range burst {
		burst[i] = kinds[i%len(kinds)]
	}
	burst[6], burst[13] = kinds[0], kinds[1] // leaves 3 malformed: 20, 27, 34

	swFrame, capsFrame := burstParityFixture(t)
	for _, f := range burst {
		swFrame.HandleFrame(1, f)
	}
	swBurst, capsBurst := burstParityFixture(t)
	swBurst.HandleBurst(1, burst)

	for port := uint32(1); port <= 5; port++ {
		if port <= 4 {
			if nf, nb := capsFrame[port].count(), capsBurst[port].count(); nf != nb {
				t.Errorf("port %d: frame path delivered %d, burst path %d", port, nf, nb)
			}
		}
		pF, _ := swFrame.Port(port)
		pB, _ := swBurst.Port(port)
		if pF.Stats() != pB.Stats() {
			t.Errorf("port %d stats diverge: frame=%+v burst=%+v", port, pF.Stats(), pB.Stats())
		}
	}
	stats := func(port uint32) zof.PortStats {
		p, _ := swBurst.Port(port)
		return p.Stats()
	}
	var rxBytes uint64
	for _, f := range burst {
		rxBytes += uint64(len(f))
	}
	if st := stats(1); st.RxPackets != 37 || st.RxBytes != rxBytes || st.RxDropped != 0 {
		t.Errorf("ingress stats = %+v, want 37 packets, %d bytes", st, rxBytes)
	}
	// 7 a->b and 5 fan-out frames leave on port 2; 7 b->a and the same
	// 5 on port 3; 5 frames each die on the down and the unwired port.
	wantTx := uint64(7*len(kinds[0]) + 5*len(kinds[2]))
	if st := stats(2); st.TxPackets != 12 || st.TxBytes != wantTx || st.TxDropped != 0 {
		t.Errorf("port 2 stats = %+v, want 12 packets, %d bytes", st, wantTx)
	}
	wantTx = uint64(7*len(kinds[1]) + 5*len(kinds[2]))
	if st := stats(3); st.TxPackets != 12 || st.TxBytes != wantTx || st.TxDropped != 0 {
		t.Errorf("port 3 stats = %+v, want 12 packets, %d bytes", st, wantTx)
	}
	for port := uint32(4); port <= 5; port++ {
		if st := stats(port); st.TxDropped != 5 || st.TxPackets != 0 || st.TxBytes != 0 {
			t.Errorf("port %d stats = %+v, want 5 tx drops and nothing sent", port, st)
		}
	}
	lf, mf := tableStats(t, swFrame)
	lb, mb := tableStats(t, swBurst)
	if lf != lb || mf != mb {
		t.Errorf("table accounting diverges: frame=%d/%d burst=%d/%d", lf, mf, lb, mb)
	}
	// 34 decodable frames: every one is a lookup, all but the 5 misses
	// are matches, the malformed frames are neither.
	if lb != 34 || mb != 29 {
		t.Errorf("burst accounting = %d lookups / %d matches, want 34/29", lb, mb)
	}
}

// TestHandleBurstParityReentrant wires port 2 back into the switch at
// port 3, so every frame port 1 forwards re-enters on another port
// while its burst is still in flight: when both calls have returned,
// every port's counters are exact, per frame and per burst alike.
func TestHandleBurstParityReentrant(t *testing.T) {
	build := func() *Switch {
		sw, _ := testSwitch(t, Config{DropOnMiss: true})
		p2, _ := sw.Port(2)
		p2.SetTx(func(data []byte) { sw.HandleFrame(3, data) })
		for in, out := range map[uint32]uint32{1: 2, 3: 1} {
			m := zof.MatchAll()
			m.Wildcards &^= zof.WInPort
			m.InPort = in
			addFlow(t, sw, m, 10, zof.Output(out))
		}
		return sw
	}
	burst := make([][]byte, 37)
	for i := range burst {
		burst[i] = udpFrame(t, hostA, hostB, uint16(i%5), 7, "loop")
	}
	n, bytes := uint64(len(burst)), uint64(len(burst)*len(burst[0]))
	swFrame, swBurst := build(), build()
	for _, f := range burst {
		swFrame.HandleFrame(1, f)
	}
	swBurst.HandleBurst(1, burst)
	for port, want := range map[uint32]zof.PortStats{
		1: {PortNo: 1, RxPackets: n, RxBytes: bytes, TxPackets: n, TxBytes: bytes},
		2: {PortNo: 2, TxPackets: n, TxBytes: bytes},
		3: {PortNo: 3, RxPackets: n, RxBytes: bytes},
	} {
		pF, _ := swFrame.Port(port)
		pB, _ := swBurst.Port(port)
		if pF.Stats() != want || pB.Stats() != want {
			t.Errorf("port %d: frame=%+v burst=%+v, want %+v", port, pF.Stats(), pB.Stats(), want)
		}
	}
}

// TestHandleBurstOrdering asserts bursted frames leave in arrival
// order — the per-port ordering contract the per-frame path gives.
func TestHandleBurstOrdering(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	const n = 50
	burst := make([][]byte, n)
	for i := range burst {
		burst[i] = udpFrame(t, hostA, hostB, uint16(100+i), 7, fmt.Sprintf("seq-%03d", i))
	}
	sw.HandleBurst(1, burst)
	if got := caps[2].count(); got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	caps[2].mu.Lock()
	defer caps[2].mu.Unlock()
	for i, f := range caps[2].frames {
		if !bytes.Equal(f, burst[i]) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

// TestHandleBurstConcurrentIngress is the contract concurrent callers
// rely on: three goroutines, one per ingress port, push sequence-stamped frames through HandleBurst in bursts of
// 1..32 toward one egress. No frame is lost, every frame is looked up
// exactly once, and each in-port's frames leave in arrival order. Run
// under -race.
func TestHandleBurstConcurrentIngress(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	out := &capture{}
	sw.AddPort(4, "", 1000).SetTx(out.tx)
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(4))
	const ports, perPort = 3, 2000
	var wg sync.WaitGroup
	for p := 1; p <= ports; p++ {
		// The UDP source port names the in-port; four interleaved
		// destination ports put several microflows in every burst.
		frames := make([][]byte, perPort)
		for seq := range frames {
			frames[seq] = udpFrame(t, hostA, hostB, uint16(p), uint16(seq%4), fmt.Sprintf("%06d", seq))
		}
		wg.Add(1)
		go func(in uint32) {
			defer wg.Done()
			for size := 1; len(frames) > 0; size = size%32 + 1 {
				n := min(size, len(frames))
				sw.HandleBurst(in, frames[:n])
				frames = frames[n:]
			}
		}(uint32(p))
	}
	wg.Wait()
	if got := out.count(); got != ports*perPort {
		t.Fatalf("delivered %d of %d", got, ports*perPort)
	}
	if l, _ := tableStats(t, sw); l != ports*perPort {
		t.Fatalf("lookups = %d, want %d", l, ports*perPort)
	}
	const udpSrc, payload = 14 + 20, 14 + 20 + 8
	next := map[uint16]int{}
	for _, f := range out.frames {
		in := binary.BigEndian.Uint16(f[udpSrc:])
		seq, err := strconv.Atoi(string(f[payload:]))
		if err != nil {
			t.Fatal(err)
		}
		if seq != next[in] {
			t.Fatalf("in-port %d: seq %d left where %d was due", in, seq, next[in])
		}
		next[in]++
	}
}

// TestHandleBurstEdgeCases covers the degenerate inputs: empty bursts,
// unknown ports, bursts where every frame dies on decode.
func TestHandleBurstEdgeCases(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	sw.HandleBurst(1, nil)
	sw.HandleBurst(99, [][]byte{udpFrame(t, hostA, hostB, 1, 2, "x")})
	sw.HandleBurst(1, [][]byte{{1}, {2, 3}})
	if caps[2].count() != 0 {
		t.Fatalf("degenerate bursts forwarded %d frames", caps[2].count())
	}
	if l, _ := tableStats(t, sw); l != 0 {
		t.Fatalf("undecodable frames reached the table: %d lookups", l)
	}
	// Down ingress drops the whole burst at the port.
	sw.SetPortDown(1, true)
	sw.HandleBurst(1, [][]byte{udpFrame(t, hostA, hostB, 1, 2, "y")})
	if caps[2].count() != 0 {
		t.Fatal("down port forwarded")
	}
	p, _ := sw.Port(1)
	if st := p.Stats(); st.RxDropped != 1 {
		t.Fatalf("rx dropped = %d, want 1", st.RxDropped)
	}
}

// TestHandleBurstGroupsShareLookup asserts the amortization contract:
// a burst of n same-flow frames costs one cache-warmed group and the
// flow entry's packet counter still advances by exactly n.
func TestHandleBurstGroupsShareLookup(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(2))
	fr := udpFrame(t, hostA, hostB, 9, 9, "grp")
	burst := make([][]byte, 37)
	for i := range burst {
		burst[i] = fr
	}
	sw.HandleBurst(1, burst)
	sw.HandleBurst(1, burst) // second burst must be a pure cache hit
	if got := caps[2].count(); got != 74 {
		t.Fatalf("delivered %d, want 74", got)
	}
	l, m := tableStats(t, sw)
	if l != 74 || m != 74 {
		t.Fatalf("accounting = %d/%d, want 74/74", l, m)
	}
	var rep *zof.StatsReply
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()},
		2, func(r zof.Message, _ uint32) { rep = r.(*zof.StatsReply) })
	if rep.Flows[0].PacketCount != 74 {
		t.Fatalf("flow packets = %d, want 74", rep.Flows[0].PacketCount)
	}
	if in, _ := sw.Port(1); in.cache.Hits() == 0 {
		t.Fatal("second burst did not hit the microflow cache")
	}
}

// TestBurstOwnsItsBuffers pins the copy-on-write contract of the execs
// a burst owns: the rule [set_tp_src, group:all{[set_tp_dst, output:2],
// [group:all{[set_vlan, output:3]}]}, output:4] makes every frame's exec
// copy once, fan out into nested execs two deep and reframe in the
// innermost, and then transmit its own bytes again. Every egress must be
// byte-equal to what a fresh switch emits for that frame alone, port 4's
// frames must carry the parent's edit and neither bucket's, and the
// caller's slices must come back untouched — for one burst, and for two
// goroutines bursting at once (run under -race).
func TestBurstOwnsItsBuffers(t *testing.T) {
	build := func() (*Switch, map[uint32]*capture) {
		sw, caps := testSwitch(t, Config{DropOnMiss: true})
		caps[4] = &capture{}
		sw.AddPort(4, "", 1000).SetTx(caps[4].tx)
		sw.AddGroup(GroupDesc{ID: 2, Type: GroupAll, Buckets: []Bucket{
			{Actions: []zof.Action{zof.SetVLAN(9), zof.Output(3)}},
		}})
		sw.AddGroup(GroupDesc{ID: 1, Type: GroupAll, Buckets: []Bucket{
			{Actions: []zof.Action{zof.SetTPDst(2222), zof.Output(2)}},
			{Actions: []zof.Action{zof.Group(2)}},
		}})
		addFlow(t, sw, zof.MatchAll(), 1, zof.SetTPSrc(1111), zof.Group(1), zof.Output(4))
		return sw, caps
	}
	// 32 frames of four interleaved microflows, every payload distinct.
	mkBurst := func(src packet.IPv4Addr) [][]byte {
		frames := make([][]byte, 32)
		for i := range frames {
			frames[i] = udpFrame(t, src, hostB, uint16(40+i%4), 50, fmt.Sprintf("own-%02d", i))
		}
		return frames
	}
	clone := func(frames [][]byte) [][]byte {
		out := make([][]byte, len(frames))
		for i, fr := range frames {
			out[i] = append([]byte(nil), fr...)
		}
		return out
	}
	// alone is the reference: each frame through a switch of its own.
	alone := func(frames [][]byte) map[uint32][][]byte {
		want := map[uint32][][]byte{}
		for i, fr := range frames {
			sw, caps := build()
			sw.HandleFrame(1, fr)
			for port := uint32(2); port <= 4; port++ {
				out := caps[port].last(t)
				f := mustDecode(t, out)
				wantDst, wantVLAN := uint16(50), port == 3
				if port == 2 {
					wantDst = 2222
				}
				if f.UDP.SrcPort != 1111 || f.UDP.DstPort != wantDst || f.Has(packet.LayerVLAN) != wantVLAN ||
					(wantVLAN && f.VLAN.VLAN != 9) || string(f.Payload) != fmt.Sprintf("own-%02d", i) {
					t.Fatalf("frame %d alone, port %d: udp :%d>:%d vlan=%v payload %q", i, port,
						f.UDP.SrcPort, f.UDP.DstPort, f.Has(packet.LayerVLAN), f.Payload)
				}
				want[port] = append(want[port], out)
			}
		}
		return want
	}
	// same checks that got is want, rounds times over.
	same := func(who string, port uint32, got, want [][]byte, rounds int) {
		t.Helper()
		if len(got) != rounds*len(want) {
			t.Fatalf("%s, port %d: %d frames out, want %d", who, port, len(got), rounds*len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i%len(want)]) {
				t.Fatalf("%s, port %d: egress frame %d differs from the frame sent alone", who, port, i)
			}
		}
	}

	frames := mkBurst(hostA)
	orig, want := clone(frames), alone(frames)
	sw, caps := build()
	sw.HandleBurst(1, frames)
	for port := uint32(2); port <= 4; port++ {
		same("one burst", port, caps[port].frames, want[port], 1)
	}
	for i := range frames {
		if !bytes.Equal(frames[i], orig[i]) {
			t.Fatalf("the caller's frame %d was written to", i)
		}
	}

	// Two ingress goroutines, told apart on egress by source address.
	const rounds = 50
	srcs := []packet.IPv4Addr{{10, 0, 1, 1}, {10, 0, 2, 1}}
	sw, caps = build()
	var wg sync.WaitGroup
	wants := make([]map[uint32][][]byte, len(srcs))
	for g, src := range srcs {
		frames := mkBurst(src)
		wants[g] = alone(frames)
		wg.Add(1)
		go func() {
			defer wg.Done()
			orig := clone(frames)
			for r := 0; r < rounds; r++ {
				sw.HandleBurst(1, frames)
			}
			for i := range frames {
				if !bytes.Equal(frames[i], orig[i]) {
					t.Errorf("%v: the caller's frame %d was written to", src, i)
				}
			}
		}()
	}
	wg.Wait()
	for port := uint32(2); port <= 4; port++ {
		got := make([][][]byte, len(srcs))
		for _, out := range caps[port].frames {
			for g, src := range srcs {
				if mustDecode(t, out).IPv4.Src == src {
					got[g] = append(got[g], out)
				}
			}
		}
		for g, src := range srcs {
			same(src.String(), port, got[g], wants[g][port], rounds)
		}
	}
}

// TestConcurrentBurstUnderControlChurn is the burst-mode companion of
// TestConcurrentPipelineUnderControlChurn: HandleBurst from many
// goroutines races flow mods, group add/delete, port flaps, stats and
// explain-mode Trace. Under -race this exercises the batched
// lookup/grouping structures against every control-path interleaving;
// the assertions keep the exact-accounting invariant — and Trace's
// zero-footprint contract — intact for bursted traffic.
func TestConcurrentBurstUnderControlChurn(t *testing.T) {
	const workers = 8
	const burstsPerWorker = 40
	const burstSize = 16

	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
	var rx [workers]atomic.Uint64
	frames := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		in, out := uint32(w+1), uint32(101+w)
		sw.AddPort(in, "", 1000)
		idx := w
		sw.AddPort(out, "", 1000).SetTx(func([]byte) { rx[idx].Add(1) })
		m := zof.MatchAll()
		m.Wildcards &^= zof.WInPort
		m.InPort = in
		addFlow(t, sw, m, 100, zof.Output(out))
		src := packet.IPv4Addr{10, 0, byte(w), 1}
		dst := packet.IPv4Addr{10, 0, byte(w), 2}
		frames[w] = udpFrame(t, src, dst, uint16(4000+w), 5000, "payload")
	}
	sw.AddPort(200, "", 1000)

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // control churn, as in the per-frame test
		defer aux.Done()
		drop := func(zof.Message, uint32) {}
		churn := zof.MatchAll()
		churn.Wildcards &^= zof.WEtherType
		churn.EtherType = 0x88b5
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			prio := uint16(200 + i%50)
			sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: churn, Priority: prio,
				BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(200)}}, 1, drop)
			sw.Process(&zof.GroupMod{Command: zof.GroupAdd, GroupID: 7, GroupType: uint8(GroupAll),
				Buckets: []zof.GroupBucket{{Actions: []zof.Action{zof.Output(200)}}}}, 2, drop)
			sw.SetPortDown(200, i%2 == 0)
			sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 3, drop)
			sw.Process(&zof.GroupMod{Command: zof.GroupDelete, GroupID: 7}, 4, drop)
			sw.Process(&zof.FlowMod{Command: zof.FlowDeleteStrict, Match: churn, Priority: prio,
				BufferID: zof.NoBuffer}, 5, drop)
		}
	}()
	aux.Add(1)
	go func() { // explain-mode tracer racing the bursts
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr := sw.Trace(1, frames[0])
			if len(tr.Steps) == 0 {
				t.Error("trace saw no steps")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := uint32(w + 1)
			burst := make([][]byte, burstSize)
			for i := range burst {
				burst[i] = frames[w]
			}
			for i := 0; i < burstsPerWorker; i++ {
				// Vary the burst size so pooled bursts are reused across
				// sizes, covering the grouping-table reset path.
				n := 1 + (i % burstSize)
				sw.HandleBurst(in, burst[:n])
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	perWorker := uint64(0)
	for i := 0; i < burstsPerWorker; i++ {
		perWorker += uint64(1 + i%burstSize)
	}
	for w := 0; w < workers; w++ {
		if got := rx[w].Load(); got != perWorker {
			t.Errorf("worker %d: delivered %d of %d frames", w, got, perWorker)
		}
		p, _ := sw.Port(uint32(w + 1))
		if st := p.Stats(); st.RxPackets != perWorker {
			t.Errorf("port %d: rxPackets = %d", w+1, st.RxPackets)
		}
	}
	total := perWorker * workers
	l, m := tableStats(t, sw)
	if l != total || m != total {
		t.Errorf("table stats lookups=%d matches=%d, want %d/%d (trace must not count)", l, m, total, total)
	}
	if n := sw.FlowCount(); n != workers {
		t.Errorf("flow count after churn = %d, want %d", n, workers)
	}
}
