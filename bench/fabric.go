package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/cbench"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// Fabric parameters. The two hosts sit in the first and the last pod of
// a k=4 fat-tree: 5 switch hops, 6 pipes each way.
var (
	hostAIP = packet.IPv4Addr{10, 0, 0, 1}
	hostBIP = packet.IPv4Addr{10, 0, 3, 1}
)

// hostMAC is the MAC netem gives a host with this IP.
func hostMAC(ip packet.IPv4Addr) packet.MAC { return netem.NewHost("", ip).MAC }

const (
	fatTreeK  = 4
	echoPort  = 7001
	setupPort = 9001
	benchPort = 100 // bench-owned ingress port on the set-up edge switches
	// An op that misses its timeout failed. The issue proposed 50 ms and
	// 200 ms; on this box the whole VM stalls for longer than that about
	// once in a few million echoes, and a stall is not a lost frame.
	echoTimeout  = 500 * time.Millisecond
	setupTimeout = time.Second
	echoWindow   = 64
	setupWindow  = 8
	setupEdges   = 4   // edge switches set-ups enter at, round-robin
	slotRing     = 256 // outstanding-op ring; a power of two above every window
	udpOverhead  = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.UDPHeaderLen
)

// setupFrame is the first frame of a never-seen flow: a new source MAC
// toward host B, its index in the payload.
func setupFrame(i int, mac packet.MAC) []byte {
	b := packet.NewBuffer(64)
	binary.BigEndian.PutUint64(b.Append(frameLen-udpOverhead), uint64(i))
	src := packet.IPv4Addr{10, 9, byte(i >> 8), byte(i)}
	udp := packet.UDP{SrcPort: 9000, DstPort: setupPort}
	udp.SerializeToWithChecksum(b, src, hostBIP)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: hostBIP}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: hostMAC(hostBIP), Src: mac, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// completion is what a host callback hands the generator.
type completion struct {
	seq  uint64
	size int // payload bytes
	at   time.Time
}

// fabric is a running fat-tree deployment with two hosts attached.
type fabric struct {
	net   *core.Network
	edges []topo.NodeID
	a, b  *netem.Host

	// done carries completions from the program's pipe-pump goroutines to
	// the generator. 256 slots: the largest window (64) plus the flood
	// duplicates of the warm-up, so a pump never waits for the generator.
	done chan completion
	tick *time.Ticker

	stampFar atomic.Bool // traced: host B notes when it saw each echo
	farAt    [slotRing]atomic.Int64

	ingress  []*dataplane.Switch // set-up edge switches
	baseline map[topo.NodeID]int // per-switch rule count with no set-up rules

	latBuf []int64
}

func payloadSeq(p []byte) uint64 {
	if len(p) < 8 {
		return ^uint64(0)
	}
	return binary.BigEndian.Uint64(p)
}

// buildFabric brings the deployment up: controller and switches over
// loopback TCP, link discovery, hosts attached with ARP seeded, and the
// host-to-host path installed reactively until packet-ins stop.
func buildFabric() (*fabric, error) {
	g, edges, err := topo.FatTree(fatTreeK, 1000)
	if err != nil {
		return nil, err
	}
	pipe := netem.PipeConfig{BurstSize: burstLen}
	n, err := core.Start(core.Options{
		Graph: g,
		Apps:  []controller.App{apps.NewRouting(), apps.NewLearningSwitch()},
		// The ring must hold one cycle's packet-ins for the traced run.
		Controller: controller.Config{TraceBuffer: 1 << 14},
		Emu:        netem.Config{Link: pipe, HostLink: pipe},
	})
	if err != nil {
		return nil, err
	}
	fb := &fabric{net: n, edges: edges, done: make(chan completion, 256),
		tick: time.NewTicker(10 * time.Millisecond)}
	fail := func(err error) (*fabric, error) { fb.stop(); return nil, err }
	if err := n.DiscoverLinks(g.NumLinks(), 5*time.Second); err != nil {
		return fail(err)
	}
	if fb.a, err = n.Emu.AttachHost("a", edges[0], hostAIP, pipe); err != nil {
		return fail(err)
	}
	if fb.b, err = n.Emu.AttachHost("b", edges[len(edges)-1], hostBIP, pipe); err != nil {
		return fail(err)
	}
	// Broadcast ARP on this fabric sets off a packet-in storm (see
	// README, "found while building"); seed both caches instead.
	fb.a.SeedARP(fb.b.IP, fb.b.MAC)
	fb.b.SeedARP(fb.a.IP, fb.a.MAC)
	fb.b.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
		switch dp {
		case echoPort:
			if fb.stampFar.Load() {
				fb.farAt[payloadSeq(payload)&(slotRing-1)].Store(time.Now().UnixNano())
			}
			fb.b.SendUDP(src, dp, sp, payload)
		case setupPort:
			fb.done <- completion{payloadSeq(payload), len(payload), time.Now()}
		}
	}
	fb.a.OnUDP = func(_ packet.IPv4Addr, _, _ uint16, payload []byte) {
		fb.done <- completion{payloadSeq(payload), len(payload), time.Now()}
	}

	// Warm the path: echo until 8 in a row come back with no packet-in
	// anywhere in the fleet.
	payload := make([]byte, frameLen-udpOverhead)
	quiet := 0
	for seq := uint64(1 << 40); quiet < 8; seq++ { // far from any window's sequence numbers
		if seq-(1<<40) > 2000 {
			return fail(fmt.Errorf("fabric: path never went quiet"))
		}
		before := fb.fleet("packet_ins")
		binary.BigEndian.PutUint64(payload, seq)
		fb.a.SendUDP(fb.b.IP, echoPort-1, echoPort, payload)
		deadline := time.After(50 * time.Millisecond) // a flooded echo that is not back by now is lost; send the next
	wait:
		for {
			select {
			case c := <-fb.done:
				if c.seq == seq {
					break wait
				}
			case <-deadline:
				quiet = -1
				break wait
			}
		}
		if fb.fleet("packet_ins") != before {
			quiet = -1
		}
		quiet++
	}
	// The first echo was flooded hop by hop through the controller;
	// its copies trickle in for a few milliseconds. Wait them out.
	for settled := 0; settled < 2; settled++ {
		before := fb.fleet("packet_ins")
		time.Sleep(5 * time.Millisecond)
		if len(fb.done) > 0 || fb.fleet("packet_ins") != before {
			settled = -1
		}
		for len(fb.done) > 0 {
			<-fb.done
		}
	}
	return fb, nil
}

func (fb *fabric) stop() {
	fb.tick.Stop()
	fb.net.Stop()
}

// fleet sums one per-switch counter over every switch.
func (fb *fabric) fleet(name string) float64 {
	reg := fb.net.Controller.Metrics()
	var sum int64
	for node := range fb.net.Emu.Switches {
		v, _ := reg.Value(fmt.Sprintf("dataplane.%d.%s", node, name))
		sum += v
	}
	return float64(sum)
}

func (fb *fabric) ctl(name string) float64 {
	v, _ := fb.net.Controller.Metrics().Value(name)
	return float64(v)
}

// linkDrops sums tail, loss and down drops over every link direction.
func (fb *fabric) linkDrops() float64 {
	var sum uint64
	for _, l := range fb.net.Emu.Graph.Links() {
		_, ab, _, ba, _ := fb.net.Emu.LinkStats(l.Key()) // every key comes from the graph itself
		sum += ab + ba
	}
	return float64(sum)
}

// slot is one outstanding op of the closed loop.
type slot struct {
	seq  uint64
	at   time.Time
	size int
	open bool
}

// loop describes one closed-loop drive: window ops outstanding, each
// started by send, each failing after timeout.
type loop struct {
	window  int
	timeout time.Duration
	send    func(seq uint64) (payload int) // starts op seq; returns the payload size to expect back
	first   uint64                         // first sequence number
	count   uint64                         // ops to run; 0 = until deadline
	dur     time.Duration                  // deadline when count is 0
	onDone  func(seq uint64, sent, done time.Time)
}

// drive runs lp from the generator goroutine and returns the window it
// measured plus the number of stray completions (a sequence number that
// was not outstanding, or a payload of the wrong size).
func (fb *fabric) drive(lp loop) (w window, strays uint64) {
	var slots [slotRing]slot
	lat := fb.latBuf[:0]
	next, end := lp.first, lp.first+lp.count
	outstanding := 0
	start := time.Now()
	now := start
	deadline := start.Add(lp.dur)
	more := func() bool {
		if lp.count > 0 {
			return next < end
		}
		return now.Before(deadline)
	}
	refill := func() {
		for outstanding < lp.window && more() {
			s := &slots[next&(slotRing-1)]
			*s = slot{seq: next, at: time.Now(), open: true}
			s.size = lp.send(next)
			next++
			outstanding++
			w.attempted++
		}
	}
	last := start
	refill()
	for outstanding > 0 {
		select {
		case c := <-fb.done:
			now = c.at
			s := &slots[c.seq&(slotRing-1)]
			if !s.open || s.seq != c.seq || s.size != c.size {
				strays++
				continue
			}
			s.open = false
			outstanding--
			lat = append(lat, int64(c.at.Sub(s.at)))
			if lp.count > 0 || !c.at.After(deadline) {
				w.ops++
				w.bytes += uint64(c.size)
				last = c.at
			}
			if lp.onDone != nil {
				lp.onDone(c.seq, s.at, c.at)
			}
		case now = <-fb.tick.C:
			if len(fb.done) > 0 {
				continue // completions first: they may be what a stall kept waiting
			}
			for i := range slots {
				if s := &slots[i]; s.open && now.Sub(s.at) > lp.timeout {
					s.open = false
					outstanding--
					w.failed++
					lat = append(lat, int64(lp.timeout))
				}
			}
		}
		refill()
	}
	w.dur = lp.dur
	if lp.count > 0 {
		w.dur = last.Sub(start)
	}
	w.setLat(lat)
	fb.latBuf = lat
	return w, strays
}

// echoLoop is the fabric_warm closed loop: UDP echoes A -> B -> A.
// sizes nil means 64-byte frames.
func (fb *fabric) echoLoop(window int, d time.Duration, first uint64, sizes []uint16) loop {
	payloads := map[uint16][]byte{}
	for _, c := range imix {
		payloads[c.size] = make([]byte, int(c.size)-udpOverhead)
	}
	return loop{window: window, timeout: echoTimeout, first: first, dur: d,
		send: func(seq uint64) int {
			size := uint16(frameLen)
			if sizes != nil {
				size = sizes[seq%uint64(len(sizes))]
			}
			p := payloads[size]
			binary.BigEndian.PutUint64(p, seq)
			fb.a.SendUDP(fb.b.IP, echoPort-1, echoPort, p)
			return len(p)
		}}
}

// runFabricWarm: windows alternate window-1 / 64-byte (latency) and
// window-64 / IMIX (throughput).
func runFabricWarm(seed int64, sc scale, tr *tracer) (*result, error) {
	res := newResult("fabric_warm")
	in := genFabricWarm(seed)
	res.InputsSHA256 = in.sha256()
	fb, err := timedFabric(res, sc)
	if err != nil {
		return nil, err
	}
	defer fb.stop()

	seq := uint64(0)
	run := func(i int, d time.Duration, wtr *tracer) window {
		lp := fb.echoLoop(1, d, seq, nil)
		if i%2 == 1 {
			lp = fb.echoLoop(echoWindow, d, seq, in.sizes)
		}
		if wtr != nil {
			fb.stampFar.Store(true)
			lp.onDone = func(s uint64, sent, done time.Time) {
				if s%uint64(sc.sampleRate) != 0 {
					return
				}
				far := fb.farAt[s&(slotRing-1)].Load() - wtr.epoch.UnixNano()
				id := wtr.root("harness", "echo", sent, done)
				wtr.child(id, 2, 1, "fabric", "forward", wtr.since(sent), far)
				wtr.child(id, 3, 1, "fabric", "return", far, wtr.since(done))
			}
		}
		w, strays := fb.drive(lp)
		fb.stampFar.Store(false)
		w.hasRate, w.traced = i%2 == 1, wtr != nil
		w.hasLat = w.hasLat && i%2 == 0
		if strays > 0 {
			res.fail(fmt.Errorf("window %d: %d echoes came back with a sequence number or size that was not outstanding", i, strays))
		}
		seq += w.attempted
		return w
	}
	run(0, sc.warmup/2, nil)
	run(1, sc.warmup/2, nil)

	cal := newCalib()
	c0 := fb.counters()
	u0 := readUsage()
	for i := 0; i < sc.windows; i++ {
		var wtr *tracer
		if tr != nil && (i/2)%2 == 0 {
			wtr = tr
		}
		res.windows = append(res.windows, run(i, sc.window, wtr))
		cal.run()
	}
	u1 := readUsage()
	c1 := fb.counters()
	if d := c1["packet_ins"] - c0["packet_ins"]; d != 0 {
		res.fail(fmt.Errorf("%v packet-ins during the windows of a warm fabric", d))
	}
	res.finish(cal, u0, u1)
	if tr == nil {
		return res, nil
	}

	L := res.Layers
	for k := range c1 {
		c1[k] -= c0[k]
	}
	fb.storeCounters(L, c1)
	// The frames as they cross the wire, one per IMIX size.
	var frames [][]byte
	for _, c := range imix {
		fl := flow{src: hostAIP, dst: hostBIP, proto: packet.ProtoUDP, sport: echoPort - 1, dport: echoPort}
		frames = append(frames, fl.frame(int(c.size)))
	}
	order := make([]uint32, len(in.sizes))
	for i, s := range in.sizes {
		for j, c := range imix {
			if c.size == s {
				order[i] = uint32(j)
			}
		}
	}
	burstNS, err := replaySwitch(L, frames, order, rulesOf(fb.net.Emu.Switches[fb.edges[0]]), sc)
	if err != nil {
		return nil, err
	}
	waitUS, hostNS := replayNetem(L, frames[0], sc)
	// Whole = unloaded RTT; parts = 12 pipe hand-offs, 10 switch
	// traversals, 2 host stacks. The remainder is scheduling.
	if whole := res.E2E["op_p50_us"].Value * 1e3; whole > 0 {
		parts := 12*waitUS*1e3 + 10*burstNS + 2*hostNS
		L.set("harness.budget_residual_pct", (whole-parts)/whole*100)
	}
	return res, nil
}

// timedFabric builds the fabric sc.setupReps times, recording each
// set-up time, and keeps the last one running.
func timedFabric(res *result, sc scale) (*fabric, error) {
	var fb *fabric
	for i := 0; i < sc.setupReps; i++ {
		if fb != nil {
			fb.stop()
		}
		err := timedSetup(res, func() (err error) {
			fb, err = buildFabric()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fb, nil
}

// counters snapshots every program-published counter the fabric
// workloads take deltas of.
func (fb *fabric) counters() map[string]float64 {
	c := map[string]float64{"link_drops": fb.linkDrops()}
	for _, k := range []string{"packet_ins", "microcache.hits", "microcache.misses",
		"flowtable.0.lookups", "flowtable.0.matches", "burst.sizes"} {
		c[k] = fb.fleet(k)
	}
	for _, k := range []string{"controller.dispatch.dropped", "zof.conn.tx_msgs", "zof.conn.rx_msgs",
		"zof.conn.flushes", "apps.spf-routing.routes"} {
		c[k] = fb.ctl(k)
	}
	return c
}

// storeCounters writes the count rows both fabric workloads share from
// delta, the change of counters() over the windows.
func (fb *fabric) storeCounters(L layerSet, delta map[string]float64) {
	d := func(k string) float64 { return delta[k] }
	L.set("flowtable.lookups", d("flowtable.0.lookups"))
	L.set("flowtable.matches", d("flowtable.0.matches"))
	if n := d("microcache.hits") + d("microcache.misses"); n > 0 {
		L.set("flowtable.cache_hit_ratio", d("microcache.hits")/n)
	}
	L.set("dataplane.packet_ins", d("packet_ins"))
	L.set("dataplane.flows", fb.fleet("flows"))
	// burst.sizes reads as its observation count: HandleBurst calls.
	if calls := d("burst.sizes"); calls > 0 {
		L.set("netem.batch_fill", d("flowtable.0.lookups")/calls)
	}
	L.set("netem.link_drops", d("link_drops"))
	L.set("controller.dispatch_dropped", d("controller.dispatch.dropped"))
}

// rulesOf dumps a switch's table as the FlowMods that would rebuild it.
func rulesOf(sw *dataplane.Switch) []*zof.FlowMod {
	var rules []*zof.FlowMod
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 1,
		func(rep zof.Message, _ uint32) {
			if sr, ok := rep.(*zof.StatsReply); ok {
				for _, f := range sr.Flows {
					rules = append(rules, addRule(f.Match, f.Priority, f.Actions...))
				}
			}
		})
	return rules
}

// replaySwitch runs the in-switch layer replays for a fabric workload
// on a replica switch holding rules, one frame per burst (the fill an
// unloaded path sees), and returns ns per frame through HandleBurst.
func replaySwitch(L layerSet, frames [][]byte, order []uint32, rules []*zof.FlowMod, sc scale) (float64, error) {
	rp := replayLayers(frames, order, rules, 1, sc.replay)
	rp.store(L)
	fx, err := newSwitchFixture(&inputs{frames: frames, order: order, rules: rules}, 0, 1)
	if err != nil {
		return 0, err
	}
	burstNS, err := fx.callNS(sc.replay, sc.replay)
	if err != nil {
		return 0, err
	}
	L.set("dataplane.burst_ns", burstNS)
	hits, misses := fx.counter("microcache.hits"), fx.counter("microcache.misses")
	miss := 0.0
	if hits+misses > 0 {
		miss = misses / (hits + misses)
	}
	L.set("dataplane.exec_ns", burstNS-rp.decodeNS-rp.keyNS-rp.cacheNS-rp.tableNS*miss)
	return burstNS, nil
}

// replayNetem runs the pipe and host-stack replays with frame.
func replayNetem(L layerSet, frame []byte, sc scale) (waitUS, hostNS float64) {
	pipeNS, waitUS := replayPipe(frame, sc.replay)
	hostNS = replayHost(make([]byte, len(frame)-udpOverhead), sc.replay)
	L.set("netem.pipe_ns", pipeNS)
	L.set("netem.pipe_wait_us", waitUS)
	L.set("netem.host_ns", hostNS)
	return waitUS, hostNS
}

// setupSpans records one sampled set-up: the root from injection to
// delivery and, from the controller's own trace of the ingress switch's
// first packet-in after the injection, the children in between.
func (t *tracer) setupSpans(dpid uint64, sent, done time.Time, evs []obs.TraceEvent) {
	id := t.root("harness", "setup", sent, done)
	for _, ev := range evs {
		if ev.Kind != "packet_in" || ev.DPID != dpid || ev.Enqueued.Before(sent) || ev.Enqueued.After(done) {
			continue
		}
		enq := t.since(ev.Enqueued)
		t.child(id, 2, 1, "dataplane", "miss_to_packet_in", t.since(sent), enq)
		t.child(id, 3, 1, "controller", "queue", enq, enq+ev.QueueNS)
		at := enq + ev.QueueNS
		for i, a := range ev.Apps {
			t.child(id, uint32(4+i), 1, "apps", a.App, at, at+a.DurNS)
			at += a.DurNS
		}
		t.child(id, uint32(4+len(ev.Apps)), 1, "fabric", "flowmods_to_delivery", at, t.since(done))
		return
	}
}

// runFlowSetup: cycles of never-seen flows injected at four edge
// switches, each timed from injection to delivery at host B.
func runFlowSetup(seed int64, sc scale, tr *tracer) (*result, error) {
	res := newResult("flow_setup")
	in := genFlowSetup(seed, sc.cycle)
	res.InputsSHA256 = in.sha256()
	fb, err := timedFabric(res, sc)
	if err != nil {
		return nil, err
	}
	defer fb.stop()
	for _, e := range fb.edges[:setupEdges] {
		sw := fb.net.Emu.Switches[e]
		sw.AddPort(benchPort, "bench", 1000).SetTx(func([]byte) {})
		fb.ingress = append(fb.ingress, sw)
	}
	ctl := fb.net.Controller
	if tr != nil {
		ctl.Tracing().SetMode(obs.TraceFull)
	}

	var queueNS, handlerNS, routingNS []int64
	cycle := func(timed bool, wtr *tracer) (window, error) {
		type sampled struct {
			dpid       uint64
			sent, done time.Time
		}
		var samples []sampled
		lp := loop{window: setupWindow, timeout: setupTimeout, count: uint64(len(in.frames)),
			send: func(seq uint64) int {
				fb.ingress[seq%setupEdges].HandleFrame(benchPort, in.frames[seq])
				return frameLen - udpOverhead
			}}
		if wtr != nil {
			lp.onDone = func(s uint64, sent, done time.Time) {
				if s%uint64(sc.sampleRate) == 0 {
					samples = append(samples, sampled{fb.ingress[s%setupEdges].DPID(), sent, done})
				}
			}
		}
		t0 := time.Now()
		w, strays := fb.drive(lp)
		w.hasRate, w.traced = true, wtr != nil
		if strays > 0 {
			return w, fmt.Errorf("%d deliveries with an index or size that was not outstanding", strays)
		}
		if tr != nil && timed {
			evs := ctl.Tracing().Events(0)
			for _, ev := range evs {
				if ev.Kind == "packet_in" && !ev.Enqueued.Before(t0) {
					queueNS = append(queueNS, ev.QueueNS)
					handlerNS = append(handlerNS, ev.TotalNS-ev.QueueNS)
					for _, a := range ev.Apps {
						if a.App == "spf-routing" {
							routingNS = append(routingNS, a.DurNS)
						}
					}
				}
			}
			for _, s := range samples {
				wtr.setupSpans(s.dpid, s.sent, s.done, evs)
			}
		}
		return w, fb.checkPlacement(len(in.frames) - int(w.failed))
	}

	// One untimed cycle first: the NIB learns the MAC population, so
	// timed cycles do not differ by a HostLearned event per flow.
	if err := fb.flush(); err != nil {
		return nil, err
	}
	fb.baseline = fb.flowCounts()
	if _, err := cycle(false, nil); err != nil {
		return nil, err
	}
	if err := fb.flush(); err != nil {
		return nil, err
	}

	cal := newCalib()
	var setups float64
	var ingressRules []*zof.FlowMod
	delta := map[string]float64{} // counters() summed over the timed cycles
	u0 := readUsage()
	// Cycles fill the run's measuring time; at least four, so the
	// best-quartile mean has something to choose from.
	deadline := time.Now().Add(time.Duration(sc.windows) * sc.window)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		var wtr *tracer
		if tr != nil && i%2 == 0 {
			wtr = tr
		}
		c0 := fb.counters()
		w, err := cycle(true, wtr)
		if err != nil {
			res.fail(fmt.Errorf("cycle %d: %w", i, err))
		}
		for k, v := range fb.counters() {
			delta[k] += v - c0[k]
		}
		setups += float64(w.ops)
		res.windows = append(res.windows, w)
		if tr != nil {
			ingressRules = rulesOf(fb.ingress[0])
		}
		if err := fb.flush(); err != nil {
			res.fail(fmt.Errorf("cycle %d: %w", i, err))
		}
		cal.run()
	}
	u1 := readUsage()
	res.finish(cal, u0, u1)
	if tr == nil {
		return res, nil
	}

	L := res.Layers
	fb.storeCounters(L, delta)
	// One FlowMod applied by an ingress switch, at its table size
	// between cycles.
	fmUS, err := (&scratch{sw: fb.ingress[0]}).probe(sc.probe)
	if err != nil {
		return nil, err
	}
	L.set("dataplane.flowmod_us", fmUS)
	if setups > 0 {
		L.set("controller.pktin_per_setup", delta["packet_ins"]/setups)
		L.set("zof.msgs_per_setup", (delta["zof.conn.tx_msgs"]+delta["zof.conn.rx_msgs"])/setups)
		L.set("zof.flushes_per_setup", delta["zof.conn.flushes"]/setups)
		L.set("apps.routes_per_setup", delta["apps.spf-routing.routes"]/setups)
	}
	qw, _ := latQuantiles(queueNS)
	hd, _ := latQuantiles(handlerNS)
	L.set("controller.queue_wait_us", qw)
	L.set("controller.handler_us", hd)
	rt, _ := latQuantiles(routingNS)
	L.set("apps.routing_us", rt)

	order := make([]uint32, len(in.frames))
	for i := range order {
		order[i] = uint32(i)
	}
	burstNS, err := replaySwitch(L, in.frames, order, ingressRules, sc)
	if err != nil {
		return nil, err
	}
	waitUS, _ := replayNetem(L, in.frames[0], sc)
	L.set("zof.codec_ns", replayCodec(in.frames[0], sc.replay))

	// One control round trip on the idle fabric.
	var rtts []int64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if err := ctl.Barrier(2 * time.Second); err != nil {
			return nil, err
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	barrierUS, _ := latQuantiles(rtts)
	L.set("zof.barrier_rtt_us", barrierUS)

	// The routing app's shortest-path call on the discovered graph, for
	// the pairs the workload routes.
	g := ctl.NIB().Graph()
	far := fb.edges[len(fb.edges)-1]
	spfNS := replay(sc.replay, setupEdges, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := g.ShortestPath(fb.edges[i%setupEdges], far); !ok {
				panic("bench: discovered graph lost a path")
			}
		}
	})
	L.set("topo.spf_us", spfNS/1e3)

	// Whole = set-up p50; parts = controller wait and handler, one
	// control round trip, the ingress FlowMod, 5 switch traversals and 5
	// pipe hand-offs.
	if whole := res.E2E["op_p50_us"].Value; whole > 0 {
		parts := qw + hd + barrierUS + fmUS + 5*burstNS/1e3 + 5*waitUS
		L.set("harness.budget_residual_pct", (whole-parts)/whole*100)
	}

	// cbench against the same controller and apps, last: it connects
	// four more switches and fills the NIB with its own hosts.
	cb, err := cbench.Run(cbench.Config{Addr: ctl.Addr(), Switches: 4, Window: 8,
		Duration: 10 * sc.replay})
	if err != nil {
		return nil, fmt.Errorf("cbench: %w", err)
	}
	L.set("controller.cbench_rps", cb.PerSecond())
	return res, nil
}

func (fb *fabric) flowCounts() map[topo.NodeID]int {
	out := make(map[topo.NodeID]int, len(fb.net.Emu.Switches))
	for node, sw := range fb.net.Emu.Switches {
		out[node] = sw.FlowCount()
	}
	return out
}

// flush deletes every rule toward host B through the controller and
// fences the deletes, then checks no switch holds more than baseline.
func (fb *fabric) flush() error {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthDst
	m.EthDst = fb.b.MAC
	for _, sc := range fb.net.Controller.Switches() {
		if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowDelete, Match: m, BufferID: zof.NoBuffer}); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	if err := fb.net.Controller.Barrier(2 * time.Second); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if fb.baseline == nil {
		return nil
	}
	for node, n := range fb.flowCounts() {
		if n != fb.baseline[node] {
			return fmt.Errorf("after the flush switch %d holds %d rules, want %d", node, n, fb.baseline[node])
		}
	}
	return nil
}

// checkPlacement checks, after a cycle of n delivered set-ups, that
// rules sit on the switches a shortest path can cross and nowhere else.
// Equal-cost choices are the routing app's, so aggregation and core
// layers are checked as sums.
func (fb *fabric) checkPlacement(n int) error {
	// Fat-tree numbering: 4 cores, then per pod 2 aggregation + 2 edge.
	half := fatTreeK / 2
	numCore := half * half
	pod := func(node topo.NodeID) int { return (int(node) - numCore - 1) / fatTreeK }
	isEdge := func(node topo.NodeID) bool { return int(node) > numCore && (int(node)-numCore-1)%fatTreeK >= half }
	far := fb.edges[len(fb.edges)-1]
	ingressPods := map[int]bool{}
	perIngress := map[topo.NodeID]int{}
	for i, e := range fb.edges[:setupEdges] {
		ingressPods[pod(e)] = true
		perIngress[e] = n / setupEdges
		if i < n%setupEdges {
			perIngress[e]++
		}
	}
	extra := 0 // rules beyond one per hop: a frame that out-ran its FlowMods was re-routed
	var cores, farAggs, srcAggs int
	var nodes []topo.NodeID
	for node := range fb.net.Emu.Switches {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	counts := fb.flowCounts()
	for _, node := range nodes {
		got := counts[node] - fb.baseline[node]
		switch {
		case int(node) <= numCore:
			cores += got
		case node == far:
			if got != n {
				return fmt.Errorf("far edge switch %d holds %d set-up rules, want %d", node, got, n)
			}
		case isEdge(node):
			if got != perIngress[node] {
				return fmt.Errorf("edge switch %d holds %d set-up rules, want %d", node, got, perIngress[node])
			}
		case pod(node) == pod(far):
			farAggs += got
		case ingressPods[pod(node)]:
			srcAggs += got
		default:
			if got != 0 {
				return fmt.Errorf("off-path switch %d holds %d set-up rules", node, got)
			}
		}
	}
	for name, got := range map[string]int{"core": cores, "far-pod aggregation": farAggs, "ingress-pod aggregation": srcAggs} {
		if got < n {
			return fmt.Errorf("%s layer holds %d set-up rules, want at least %d", name, got, n)
		}
		extra += got - n
	}
	// Every surplus rule needs a packet-in of its own; more surplus than
	// set-ups means rules are being sprayed, not routed.
	if extra > n {
		return fmt.Errorf("%d surplus set-up rules for %d set-ups", extra, n)
	}
	return nil
}
