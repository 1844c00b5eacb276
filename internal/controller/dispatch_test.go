package controller

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cbench"
	"repro/internal/zof"
)

// orderCheck asserts per-switch event ordering: cbench buffer ids are
// monotonically increasing per emulated switch, so under DPID-sharded
// dispatch every switch's packet-ins must still arrive in id order.
// It never consumes, so a responder behind it keeps the load moving.
type orderCheck struct {
	mu         sync.Mutex
	last       map[uint64]uint32
	seen       uint64
	violations []string
}

func (o *orderCheck) Name() string { return "order-check" }

func (o *orderCheck) PacketIn(c *Controller, ev PacketInEvent) bool {
	o.mu.Lock()
	if prev, ok := o.last[ev.DPID]; ok && ev.Msg.BufferID <= prev {
		if len(o.violations) < 10 {
			o.violations = append(o.violations,
				fmt.Sprintf("dpid %d: buffer %d after %d", ev.DPID, ev.Msg.BufferID, prev))
		}
	}
	o.last[ev.DPID] = ev.Msg.BufferID
	o.seen++
	o.mu.Unlock()
	return false
}

// responder answers every packet-in with a flow-mod releasing the
// buffered packet, keeping cbench's windows moving.
type responder struct{}

func (responder) Name() string { return "responder" }

func (responder) PacketIn(c *Controller, ev PacketInEvent) bool {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return true
	}
	_ = sc.InstallFlow(&zof.FlowMod{
		Command:  zof.FlowAdd,
		Match:    zof.MatchAll(),
		Priority: 1,
		BufferID: ev.Msg.BufferID,
	})
	return true
}

// TestPerSwitchOrderingUnderShardedDispatch drives a cbench load at a
// controller with many dispatch shards and checks that each switch's
// packet-ins are observed in the order it sent them. Run with -race.
func TestPerSwitchOrderingUnderShardedDispatch(t *testing.T) {
	ctl, err := New(Config{DispatchWorkers: 8, EventQueue: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	oc := &orderCheck{last: make(map[uint64]uint32)}
	ctl.Use(oc, responder{})

	res, err := cbench.Run(cbench.Config{
		Addr:     ctl.Addr(),
		Switches: 16,
		Window:   8,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Responses == 0 {
		t.Fatal("no responses")
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if len(oc.violations) > 0 {
		t.Fatalf("per-switch ordering violated (%d events seen): %v", oc.seen, oc.violations)
	}
	if oc.seen == 0 {
		t.Fatal("order checker saw no events")
	}
	if len(oc.last) != 16 {
		t.Errorf("events from %d switches, want 16", len(oc.last))
	}
}

// countingApp tallies packet-ins.
type countingApp struct{ n atomic.Uint64 }

func (a *countingApp) Name() string { return "count" }
func (a *countingApp) PacketIn(c *Controller, ev PacketInEvent) bool {
	a.n.Add(1)
	return false
}

// TestUseWhileDispatching registers apps while packet-ins are in
// flight: registration is copy-on-write and must neither stall the
// dispatch workers nor race the app-chain walk. Run with -race.
func TestUseWhileDispatching(t *testing.T) {
	ctl, err := New(Config{DispatchWorkers: 8, EventQueue: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	first := &countingApp{}
	ctl.Use(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctl.InjectEvent(PacketInEvent{DPID: uint64(i % 32), Msg: zof.PacketIn{BufferID: uint32(i)}})
		}
	}()

	late := make([]*countingApp, 8)
	for i := range late {
		late[i] = &countingApp{}
		ctl.Use(late[i])
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	queued := func() int64 { v, _ := ctl.Metrics().Value("controller.dispatch.queued"); return v }
	waitUntil(t, 2*time.Second, func() bool { return queued() == 0 })
	if first.n.Load() == 0 {
		t.Fatal("no events dispatched")
	}
	// Apps registered mid-flight must see traffic posted after their
	// registration (the generator kept running throughout).
	if late[0].n.Load() == 0 {
		t.Error("app registered during dispatch saw no events")
	}
}

// TestOverflowDropsAreCounted floods a tiny shard queue behind a
// blocked app: posts must not block and every shed event must tick the
// Dropped counter.
func TestOverflowDropsAreCounted(t *testing.T) {
	slow := &slowApp{release: make(chan struct{})}
	var mu sync.Mutex
	var logged []string
	ctl, err := New(Config{DispatchWorkers: 2, EventQueue: 4, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(slow)
	for i := 0; i < 500; i++ {
		ctl.InjectEvent(PacketInEvent{DPID: 0xd1}) // one DPID: one shard, FIFO
	}
	mv := func(name string) int64 { v, _ := ctl.Metrics().Value(name); return v }
	if d := mv("controller.dispatch.dropped"); d == 0 {
		t.Fatal("overflow not counted")
	}
	// The drop line names the switch whose event was shed.
	mu.Lock()
	named := slices.Contains(logged, "dispatch shard full; dropping controller.PacketInEvent for 0xd1")
	mu.Unlock()
	if !named {
		t.Errorf("no drop line names the switch; logged %d lines", len(logged))
	}
	close(slow.release)
	waitUntil(t, 2*time.Second, func() bool { return mv("controller.dispatch.queued") == 0 })
	disp := mv("controller.dispatch.dispatched")
	drop := mv("controller.dispatch.dropped")
	if disp+drop < 500 {
		t.Errorf("dispatched %d + dropped %d < 500 posted", disp, drop)
	}
}

// BenchmarkControllerPacketIn measures dispatch throughput of the
// sharded event path: b.N synthetic packet-ins spread over 64 DPIDs.
func BenchmarkControllerPacketIn(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			ctl, err := New(Config{DispatchWorkers: workers, EventQueue: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer ctl.Close()
			app := &countingApp{}
			ctl.Use(app)
			evs := make([]PacketInEvent, 64)
			for i := range evs {
				evs[i] = PacketInEvent{DPID: uint64(i + 1), Msg: zof.PacketIn{BufferID: 1}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctl.InjectEvent(evs[i%len(evs)])
			}
			dropped := ctl.Metrics().Counter("controller.dispatch.dropped")
			for app.n.Load()+dropped.Value() < uint64(b.N) {
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}
