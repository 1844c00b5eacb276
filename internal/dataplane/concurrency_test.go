package dataplane

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// TestConcurrentPipelineUnderControlChurn drives HandleFrame from many
// goroutines while a controller goroutine streams flow mods, group
// mods, port status flips and stats requests at the switch. Run under
// -race this exercises every fast-path/control-path interleaving; the
// assertions check that no frame is lost and that table accounting
// stays exact despite the churn.
func TestConcurrentPipelineUnderControlChurn(t *testing.T) {
	const workers = 8
	const framesPerWorker = 500

	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})

	// Worker w sends on ingress port w+1; a dedicated flow steers its
	// traffic to egress port 100+w+1 where we count deliveries.
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
	// A spare port for the controller to flap without affecting traffic.
	sw.AddPort(200, "", 1000)

	// Control churn: each iteration installs a flow that never matches
	// the test traffic (exact EtherType nobody sends), adds and deletes
	// a group, flaps the spare port, and pulls flow stats — every
	// publishLocked path runs while frames are in flight.
	stop := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
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

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := uint32(w + 1)
			for i := 0; i < framesPerWorker; i++ {
				sw.HandleFrame(in, frames[w])
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ctl.Wait()

	// No lost frames: every worker's traffic came out its egress port.
	for w := 0; w < workers; w++ {
		if got := rx[w].Load(); got != framesPerWorker {
			t.Errorf("worker %d: delivered %d of %d frames", w, got, framesPerWorker)
		}
		p, _ := sw.Port(uint32(w + 1))
		if st := p.Stats(); st.RxPackets != framesPerWorker {
			t.Errorf("port %d: rxPackets = %d", w+1, st.RxPackets)
		}
	}

	// Table accounting is exact: each frame is one lookup and one match
	// (worker flows always win; churn flows never match the traffic).
	const total = workers * framesPerWorker
	var stats *zof.StatsReply
	sw.Process(&zof.StatsRequest{Kind: zof.StatsTable}, 9, func(m zof.Message, _ uint32) {
		stats = m.(*zof.StatsReply)
	})
	if stats == nil || len(stats.Tables) != 1 {
		t.Fatalf("bad table stats reply: %+v", stats)
	}
	if ts := stats.Tables[0]; ts.LookupCount != total || ts.MatchedCount != total {
		t.Errorf("table stats lookups=%d matches=%d, want %d/%d",
			ts.LookupCount, ts.MatchedCount, total, total)
	}
	// Churn flows all deleted again: only the worker flows remain.
	if n := sw.FlowCount(); n != workers {
		t.Errorf("flow count after churn = %d, want %d", n, workers)
	}
}

// TestPerPortCacheUnderChurn puts the per-port microflow caches where
// they can go wrong: three ingress ports driven by a goroutine each,
// a second goroutine sharing port 1's cache, and a controller
// alternating a higher-priority rule that diverts half the traffic with
// its strict delete, so every cache fills with answers that the next
// FlowMod makes stale. No frame is lost, every group of a burst is one
// cache lookup, and once the last FlowMod has settled every frame
// leaves where an ordered scan of the final table says. Run under
// -race.
func TestPerPortCacheUnderChurn(t *testing.T) {
	const rounds, burstSize, flowsPerBurst = 300, 16, 4
	hostC := packet.IPv4Addr{10, 0, 0, 3}
	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dp")
	var out [2]atomic.Uint64 // frames leaving on ports 11 and 12
	for i := range out {
		sw.AddPort(uint32(11+i), "", 1000).SetTx(func([]byte) { out[i].Add(1) })
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.Output(11))
	divert := zof.MatchAll()
	divert.IPDst, divert.DstPrefix = hostB, 32
	mod := func(cmd uint8) {
		sw.Process(&zof.FlowMod{Command: cmd, Match: divert, Priority: 20, BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(12)}}, 1, func(zof.Message, uint32) {})
	}

	// Worker w offers its own four microflows, two to B and two to C.
	inPorts := []uint32{1, 2, 3, 1}
	bursts := make([][][]byte, len(inPorts))
	for w := range bursts {
		sw.AddPort(inPorts[w], "", 1000)
		for i := 0; i < burstSize; i++ {
			dst := []packet.IPv4Addr{hostB, hostC}[i%2]
			bursts[w] = append(bursts[w], udpFrame(t, hostA, dst, uint16(100*w+i%flowsPerBurst), 7, "churn"))
		}
	}
	stop := make(chan struct{})
	var ctl, wg sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		for {
			select {
			case <-stop:
				mod(zof.FlowAdd) // the final table diverts
				return
			default:
				mod(zof.FlowAdd)
				mod(zof.FlowDeleteStrict)
			}
		}
	}()
	for w := range bursts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sw.HandleBurst(inPorts[w], bursts[w])
			}
		}()
	}
	wg.Wait()
	close(stop)
	ctl.Wait()

	sent, groups := uint64(len(bursts)*rounds*burstSize), int64(len(bursts)*rounds*flowsPerBurst)
	if got := out[0].Load() + out[1].Load(); got != sent {
		t.Errorf("%d of %d frames left the switch", got, sent)
	}
	// The ordered scan: highest priority first, first match wins.
	var rep *zof.StatsReply
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 2,
		func(m zof.Message, _ uint32) { rep = m.(*zof.StatsReply) })
	sort.Slice(rep.Flows, func(i, j int) bool { return rep.Flows[i].Priority > rep.Flows[j].Priority })
	for w := range bursts {
		for i, fr := range bursts[w][:flowsPerBurst] {
			want := uint32(0)
			for _, fl := range rep.Flows {
				if fl.Match.MatchesFrame(mustDecode(t, fr), inPorts[w]) {
					want = fl.Actions[0].Port
					break
				}
			}
			before := [2]uint64{out[0].Load(), out[1].Load()}
			sw.HandleFrame(inPorts[w], fr)
			groups++
			if want != 11 && want != 12 || out[want-11].Load() != before[want-11]+1 {
				t.Errorf("worker %d frame %d: the final table says port %d; counts went %v -> [%d %d]",
					w, i, want, before, out[0].Load(), out[1].Load())
			}
		}
	}
	hits, _ := reg.Value("dp.microcache.hits")
	misses, _ := reg.Value("dp.microcache.misses")
	if hits+misses != groups || hits == 0 || misses == 0 {
		t.Errorf("microcache: %d hits + %d misses, %d groups looked up", hits, misses, groups)
	}
}

// TestFloodOrderDeterministic asserts FLOOD and ALL enumerate ports in
// ascending number order regardless of map layout or insertion order.
func TestFloodOrderDeterministic(t *testing.T) {
	sw := NewSwitch(Config{DropOnMiss: true, Clock: func() time.Time { return testClockBase }})
	var mu sync.Mutex
	var order []uint32
	// Insert ports in scrambled order; record tx sequence.
	for _, no := range []uint32{9, 2, 30, 1, 5} {
		no := no
		sw.AddPort(no, "", 1000).SetTx(func([]byte) {
			mu.Lock()
			order = append(order, no)
			mu.Unlock()
		})
	}
	addFlow(t, sw, zof.MatchAll(), 1, zof.Output(zof.PortFlood))
	sw.HandleFrame(9, udpFrame(t, hostA, hostB, 1, 1, "x"))
	want := []uint32{1, 2, 5, 30}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("flood hit %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("flood order %v, want %v", order, want)
		}
	}
}
