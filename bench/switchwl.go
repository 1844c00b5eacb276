package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// NF chain parameters: E15's chain.
var (
	natPublic = packet.IPv4Addr{192, 0, 2, 1}
	tunnel    = nf.TunnelConfig{
		VNI:       42,
		LocalIP:   packet.IPv4Addr{10, 200, 0, 1},
		RemoteIP:  packet.IPv4Addr{10, 200, 0, 2},
		LocalMAC:  packet.MACFromUint64(0x02e1500000a1),
		RemoteMAC: packet.MACFromUint64(0x02e1500000b1),
	}
)

const (
	ctIdle      = 40 * time.Millisecond
	nfTickEvery = 5 * time.Millisecond
	// miss_storm: frames between two FlowMods. Counting frames, not
	// time, keeps the miss share the same on a faster machine.
	modEveryFrames = 16384
	checkEvery     = 4099 // nf_chain: every n-th egress frame is re-decoded
)

// switchFixture is one dataplane.Switch with counting sinks on its
// egress ports, driven by the generator goroutine alone.
type switchFixture struct {
	sw     *dataplane.Switch
	reg    *obs.Registry
	rules  []*zof.FlowMod // as installed
	bursts [][][]byte
	perOut [][outPorts]uint32 // per burst: frames due on each egress port
	pos    int                // next burst
	sent   uint64             // bursts offered since the fixture was built

	egress [outPorts]uint64 // frames seen by each sink
	extra  uint64           // frames seen on ports beyond the four sinks

	ct  *nf.Conntrack
	nat *nf.NAT

	scratch   scratch
	modEvery  uint64 // bursts between inline FlowMods; 0 = none
	tickEvery time.Duration
	lastTick  time.Time

	// nf_chain egress check.
	chain    int
	seen     uint64
	checked  uint64
	checkErr error

	// Traced run: the sinks note first and last egress of a sampled burst.
	sample          bool
	firstTx, lastTx time.Time

	latBuf []int64
	fmBuf  []int64
}

// newSwitchFixture builds the switch the inputs describe. chain is the
// number of NF stages in front of the output action (0 = none; then
// in.rules are installed as generated). burst is the frames per
// HandleBurst call.
func newSwitchFixture(in *inputs, chain, burst int) (*switchFixture, error) {
	fx := &switchFixture{
		sw:    dataplane.NewSwitch(dataplane.Config{DPID: 1, DropOnMiss: true}),
		reg:   obs.NewRegistry(),
		chain: chain,
	}
	fx.scratch.sw = fx.sw
	fx.sw.AddPort(inPort, "in", 1000)
	for i := 0; i < outPorts; i++ {
		i := i
		fx.sw.AddPort(uint32(firstOut+i), fmt.Sprintf("out%d", i), 1000).SetTx(func(b []byte) { fx.sink(i, b) })
	}
	rules := in.rules
	for _, r := range rules { // a replica of a fabric switch outputs to ports of its own
		for _, a := range r.Actions {
			if _, ok := fx.sw.Port(a.Port); a.Type == zof.ActOutput && !ok {
				fx.sw.AddPort(a.Port, "extra", 1000).SetTx(func([]byte) { fx.extra++ })
			}
		}
	}
	if chain > 0 {
		fx.ct = nf.NewConntrack(nf.ConntrackConfig{Idle: ctIdle})
		fx.nat = nf.NewNAT(nf.NATConfig{CT: fx.ct, PublicIP: natPublic})
		stages := []nf.Stage{fx.ct, fx.nat, nf.NewTunnelEncap(tunnel)}
		var acts []zof.Action
		for id := 1; id <= chain; id++ {
			if err := fx.sw.RegisterStage(uint32(id), stages[id-1]); err != nil {
				return nil, err
			}
			acts = append(acts, zof.NF(uint32(id)))
		}
		rules = []*zof.FlowMod{addRule(zof.MatchAll(), 10, append(acts, zof.Output(firstOut))...)}
		fx.tickEvery = nfTickEvery
	}
	for _, r := range rules {
		if err := fx.flowMod(r); err != nil {
			return nil, err
		}
	}
	fx.rules = rules
	fx.sw.RegisterMetrics(fx.reg, "dataplane")

	n := len(in.order) / burst
	fx.bursts = make([][][]byte, n)
	fx.perOut = make([][outPorts]uint32, n)
	for b := range fx.bursts {
		vec := make([][]byte, burst)
		for j := range vec {
			idx := in.order[b*burst+j]
			vec[j] = in.frames[idx]
			if in.egress != nil {
				fx.perOut[b][in.egress[idx]-firstOut]++
			}
		}
		fx.bursts[b] = vec
	}
	fx.latBuf = make([]int64, 0, 1<<20)
	return fx, nil
}

func (fx *switchFixture) flowMod(fm *zof.FlowMod) error {
	var err error
	fx.sw.Process(fm, 1, func(rep zof.Message, _ uint32) {
		if e, ok := rep.(*zof.Error); ok {
			err = fmt.Errorf("flow mod: %s", e.Detail)
		}
	})
	return err
}

func (fx *switchFixture) sink(port int, b []byte) {
	fx.egress[port]++
	if fx.sample {
		fx.lastTx = time.Now()
		if fx.firstTx.IsZero() {
			fx.firstTx = fx.lastTx
		}
	}
	if fx.chain == 3 {
		if fx.seen++; fx.seen%checkEvery == 0 && fx.checkErr == nil {
			fx.checked++
			fx.checkErr = checkChainEgress(b)
		}
	}
}

// checkChainEgress re-decodes one frame that left the ct+nat+encap
// chain: outer headers as configured, inner source translated, every
// checksum valid.
func checkChainEgress(b []byte) error {
	var outer packet.Frame
	if err := packet.Decode(b, &outer); err != nil {
		return fmt.Errorf("outer decode: %w", err)
	}
	if !outer.Has(packet.LayerUDP) || outer.UDP.DstPort != nf.DefaultVXLANPort ||
		outer.IPv4.Src != tunnel.LocalIP || outer.IPv4.Dst != tunnel.RemoteIP ||
		outer.Eth.Src != tunnel.LocalMAC || outer.Eth.Dst != tunnel.RemoteMAC {
		return fmt.Errorf("outer header is not the configured tunnel: %v -> %v port %d",
			outer.IPv4.Src, outer.IPv4.Dst, outer.UDP.DstPort)
	}
	if !outer.IPv4.VerifyChecksum(b[packet.EthernetHeaderLen:]) {
		return fmt.Errorf("outer IPv4 checksum invalid")
	}
	if len(b) != nf.TunnelOverhead+frameLen {
		return fmt.Errorf("encapsulated length %d, want %d", len(b), nf.TunnelOverhead+frameLen)
	}
	if vni := binary.BigEndian.Uint32(b[nf.TunnelOverhead-4:]) >> 8; vni != tunnel.VNI {
		return fmt.Errorf("vni %d, want %d", vni, tunnel.VNI)
	}
	inner := b[nf.TunnelOverhead:]
	var f packet.Frame
	if err := packet.Decode(inner, &f); err != nil {
		return fmt.Errorf("inner decode: %w", err)
	}
	if f.IPv4.Src != natPublic {
		return fmt.Errorf("inner source %v, want translated %v", f.IPv4.Src, natPublic)
	}
	ip := inner[packet.EthernetHeaderLen:]
	if !f.IPv4.VerifyChecksum(ip) {
		return fmt.Errorf("inner IPv4 checksum invalid")
	}
	seg := ip[f.IPv4.HeaderLen():f.IPv4.Length]
	// A segment summed with its own checksum in place folds to zero.
	if sum := packet.TransportChecksum(seg, f.IPv4.Src, f.IPv4.Dst, f.IPv4.Protocol); sum != 0 {
		return fmt.Errorf("inner L4 checksum invalid (residue %#x)", sum)
	}
	return nil
}

// scratch applies FlowMods for one rule no generated flow matches,
// alternating add and strict delete, so the table size is stationary
// while its generation keeps moving. An add and a delete cost
// differently, so durations are reported per pair, halved: the median
// of a two-humped sample would jump between the humps.
type scratch struct {
	sw      *dataplane.Switch
	add     bool          // the rule is installed
	pending time.Duration // the add of the current pair
}

// pair applies the next scratch FlowMod. After a delete it returns the
// mean duration of the pair's two mods and true.
func (sc *scratch) pair() (time.Duration, bool, error) {
	d, err := sc.timed()
	if sc.add {
		sc.pending = d
		return 0, false, err
	}
	return (sc.pending + d) / 2, true, err
}

// timed applies the next scratch FlowMod and returns how long
// Switch.Process took.
func (sc *scratch) timed() (time.Duration, error) {
	m := ipv4Match(zof.MatchAll())
	m.IPDst, m.DstPrefix = packet.IPv4Addr{scratchIP, 0, 0, 1}, 32
	fm := addRule(m, 1, zof.Output(firstOut))
	if sc.add = !sc.add; !sc.add {
		fm.Command, fm.Actions = zof.FlowDeleteStrict, nil
	}
	var err error
	t0 := time.Now()
	sc.sw.Process(fm, 1, func(rep zof.Message, _ uint32) {
		if e, ok := rep.(*zof.Error); ok {
			err = fmt.Errorf("flow mod: %s", e.Detail)
		}
	})
	return time.Since(t0), err
}

// probe applies scratch FlowMods at the switch's current table size
// for about d and returns the median µs per mod, one sample per batch
// of probeBatch add/delete pairs.
func (sc *scratch) probe(d time.Duration) (float64, error) {
	// A FlowMod allocates; start from a collected heap so that where the
	// first GC cycle falls does not vary from run to run.
	runtime.GC()
	var out []int64
	for deadline := time.Now().Add(d); len(out) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < 2*probeBatch; i++ {
			if _, err := sc.timed(); err != nil {
				return 0, err
			}
		}
		out = append(out, int64(time.Since(t0))/(2*probeBatch))
	}
	p50, _ := latQuantiles(out)
	return p50, nil
}

// window drives bursts through the switch for d. With tr non-nil every
// rate-th burst gets a root span.
func (fx *switchFixture) window(d time.Duration, tr *tracer, rate int) (window, error) {
	w := window{hasRate: true, traced: tr != nil}
	lat, fms := fx.latBuf[:0], fx.fmBuf[:0]
	burst := uint64(len(fx.bursts[0]))
	before := fx.egressTotal()
	start := time.Now()
	deadline := start.Add(d)
	t0 := start
	for {
		vec := fx.bursts[fx.pos]
		if fx.pos++; fx.pos == len(fx.bursts) {
			fx.pos = 0
		}
		traced := tr != nil && fx.sent%uint64(rate) == 0
		if traced {
			fx.sample, fx.firstTx = true, time.Time{}
		}
		fx.sw.HandleBurst(inPort, vec)
		t1 := time.Now()
		lat = append(lat, int64(t1.Sub(t0)))
		fx.sent++
		w.attempted += burst
		if traced {
			fx.sample = false
			id := tr.root("harness", "burst", t0, t1)
			tr.child(id, 2, 1, "dataplane", "HandleBurst", tr.since(t0), tr.since(t1))
			if !fx.firstTx.IsZero() {
				tr.child(id, 3, 2, "harness", "egress", tr.since(fx.firstTx), tr.since(fx.lastTx))
			}
		}
		t0 = t1
		if fx.modEvery > 0 && fx.sent%fx.modEvery == 0 {
			md, ok, err := fx.scratch.pair()
			if err != nil {
				return w, err
			}
			if ok {
				fms = append(fms, int64(md))
			}
			t0 = time.Now()
		}
		if fx.tickEvery > 0 && t1.Sub(fx.lastTick) >= fx.tickEvery {
			fx.sw.Tick(t1)
			fx.lastTick = t1
			t0 = time.Now()
		}
		if t1.After(deadline) {
			w.dur = t1.Sub(start)
			break
		}
	}
	w.ops = fx.egressTotal() - before
	w.bytes = w.ops * frameLen
	w.failed = w.attempted - w.ops
	w.setLat(lat)
	w.flowmods = append([]int64(nil), fms...)
	fx.latBuf, fx.fmBuf = lat, fms
	return w, nil
}

func (fx *switchFixture) egressTotal() uint64 {
	n := fx.extra
	for _, c := range fx.egress {
		n += c
	}
	return n
}

// verify checks every frame offered left on the port its rule names.
func (fx *switchFixture) verify() error {
	var want [outPorts]uint64
	n := uint64(len(fx.bursts))
	for b := range fx.perOut {
		times := fx.sent / n
		if uint64(b) < fx.sent%n {
			times++
		}
		for p, c := range fx.perOut[b] {
			want[p] += times * uint64(c)
		}
	}
	if want != fx.egress {
		return fmt.Errorf("egress per port %v, want %v", fx.egress, want)
	}
	if fx.checkErr != nil {
		return fmt.Errorf("chain egress frame: %w", fx.checkErr)
	}
	if fx.chain == 3 && fx.seen >= checkEvery && fx.checked == 0 {
		return fmt.Errorf("no chain egress frame was checked")
	}
	if fx.nat != nil {
		if n := fx.nat.StateSummary().Counters["exhausted"]; n != 0 {
			return fmt.Errorf("nat port pool exhausted %d times", n)
		}
	}
	if n := fx.sw.PacketIns.Load(); n != 0 {
		return fmt.Errorf("%d packet-ins on a DropOnMiss switch", n)
	}
	return nil
}

// counter reads one of the switch's published counters.
func (fx *switchFixture) counter(name string) float64 {
	v, _ := fx.reg.Value("dataplane." + name)
	return float64(v)
}

// switchWorkload describes one of the three single-switch workloads.
type switchWorkload struct {
	name  string
	gen   func(seed int64) *inputs
	chain int
	storm bool
}

var switchWorkloads = []switchWorkload{
	{name: "switch_fwd", gen: func(s int64) *inputs { return genSwitchFwd(s, 1024) }},
	{name: "miss_storm", gen: func(s int64) *inputs { return genMissStorm(s, 2048) }, storm: true},
	{name: "nf_chain", gen: func(s int64) *inputs { return genNFChain(s, 3000) }, chain: 3},
}

func (wl switchWorkload) build(in *inputs) (*switchFixture, error) {
	fx, err := newSwitchFixture(in, wl.chain, burstLen)
	if err != nil {
		return nil, err
	}
	if wl.storm {
		fx.modEvery = modEveryFrames / burstLen
	}
	return fx, nil
}

// run executes the workload: timed set-ups, warm-up, windows,
// correctness checks and, when traced, the layer replays.
func (wl switchWorkload) run(seed int64, sc scale, tr *tracer) (*result, error) {
	res := newResult(wl.name)
	var in *inputs
	var fx *switchFixture
	for i := 0; i < sc.setupReps; i++ {
		err := timedSetup(res, func() (err error) {
			in = wl.gen(seed)
			fx, err = wl.build(in)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	res.InputsSHA256 = in.sha256()

	if _, err := fx.window(sc.warmup, nil, 0); err != nil {
		return nil, err
	}
	cal := newCalib()
	c0 := map[string]float64{}
	for _, k := range []string{"microcache.hits", "microcache.misses", "flowtable.0.lookups", "flowtable.0.matches"} {
		c0[k] = fx.counter(k)
	}
	var ct0 nf.StateSummary
	if fx.ct != nil {
		ct0 = fx.ct.StateSummary()
	}
	u0 := readUsage()
	for i := 0; i < sc.windows; i++ {
		var wtr *tracer
		if tr != nil && i%2 == 0 {
			wtr = tr
		}
		w, err := fx.window(sc.window, wtr, sc.sampleRate)
		if err != nil {
			return nil, err
		}
		res.windows = append(res.windows, w)
		cal.run()
	}
	u1 := readUsage()
	delta := func(k string) float64 { return fx.counter(k) - c0[k] }
	hits, misses := delta("microcache.hits"), delta("microcache.misses")
	lookups, matches := delta("flowtable.0.lookups"), delta("flowtable.0.matches")

	if err := fx.verify(); err != nil {
		res.fail(err)
	}
	res.finish(cal, u0, u1)
	if tr == nil {
		return res, nil
	}

	// Per-layer metrics.
	L := res.Layers
	L.set("flowtable.lookups", lookups)
	L.set("flowtable.matches", matches)
	if hits+misses > 0 {
		L.set("flowtable.cache_hit_ratio", hits/(hits+misses))
	}
	L.set("dataplane.packet_ins", float64(fx.sw.PacketIns.Load()))
	L.set("dataplane.flows", float64(fx.sw.FlowCount()))
	L.set("netem.batch_fill", burstLen)
	burstNS := res.burstNS(burstLen)
	L.set("dataplane.burst_ns", burstNS)
	var inline []int64 // miss_storm's FlowMods; the other two apply none
	for _, w := range res.windows {
		inline = append(inline, w.flowmods...)
	}
	fmUS, _ := latQuantiles(inline)
	L.set("dataplane.flowmod_us", fmUS)

	rp := replayLayers(in.frames, in.order, fx.rules, burstLen, sc.replay)
	rp.store(L)
	var nfNS float64
	if wl.chain > 0 {
		s := fx.ct.StateSummary()
		L.set("nf.conns_created", float64(s.Counters["created"]-ct0.Counters["created"]))
		L.set("nf.conns_expired", float64(s.Counters["expired"]-ct0.Counters["expired"]))
		L.set("nf.nat_exhausted", float64(fx.nat.StateSummary().Counters["exhausted"]))
		_, lagAvg := fx.ct.ExpiryLag()
		L.set("nf.expiry_lag_ms", float64(lagAvg)/1e6)
		// Differential ablation: the same frames through chains of
		// growing depth; each stage's cost is the step it adds.
		var prev float64
		for depth, name := range []string{"", "nf.conntrack_ns", "nf.nat_ns", "nf.encap_ns"} {
			ns, err := ablate(in, depth, sc)
			if err != nil {
				return nil, err
			}
			if name != "" {
				L.set(name, ns-prev)
				nfNS += ns - prev
			}
			prev = ns
		}
	}
	missPerFrame := 0.0
	if lookups > 0 {
		missPerFrame = misses / lookups
	}
	L.set("dataplane.exec_ns", burstNS-rp.decodeNS-rp.keyNS-rp.cacheNS-rp.tableNS*missPerFrame-nfNS)
	// Whole = wall time per frame; parts = time inside HandleBurst. The
	// remainder is the generator loop, its clock reads, Tick and the
	// inline FlowMods.
	if ops := res.E2E["ops_per_s"].Value; ops > 0 {
		whole := 1e9 / ops
		L.set("harness.budget_residual_pct", (whole-burstNS)/whole*100)
	}
	return res, nil
}

// ablate measures ns per frame through HandleBurst on a fresh switch
// whose single rule walks the first depth NF stages.
func ablate(in *inputs, depth int, sc scale) (float64, error) {
	fx, err := newSwitchFixture(in, depth, burstLen)
	if err != nil {
		return 0, err
	}
	if depth == 0 {
		// The plain variant still needs the match-all rule.
		if err := fx.flowMod(addRule(zof.MatchAll(), 10, zof.Output(firstOut))); err != nil {
			return 0, err
		}
	}
	ns, err := fx.callNS(sc.warmup/4, sc.window/2)
	return ns / burstLen, err
}

// callNS warms the fixture up, then returns the best-quartile mean time
// of one HandleBurst call over four windows of length win.
func (fx *switchFixture) callNS(warm, win time.Duration) (float64, error) {
	if _, err := fx.window(warm, nil, 0); err != nil {
		return 0, err
	}
	var per []float64
	for i := 0; i < 4; i++ {
		w, err := fx.window(win, nil, 0)
		if err != nil {
			return 0, err
		}
		per = append(per, w.meanNS)
	}
	return bestQuartile(per, false, "ns").Value, nil
}
