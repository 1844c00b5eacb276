package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/zof"
)

// E15Config parameterizes the stateful-NF experiment.
type E15Config struct {
	// Part 1 — per-frame NF cost under zipf churn on a bare switch.
	Flows     int           // zipf flow population (default 3000)
	Skew      float64       // zipf exponent (default 1.2)
	Seed      int64         // workload seed (default 1)
	Measure   time.Duration // wall time per variant (default 400ms)
	Idle      time.Duration // conntrack idle horizon (default 40ms)
	TickEvery time.Duration // sweep period while measuring (default 5ms)
	Burst     int           // vector size for the burst point (default 64)

	// Part 2 — NAT + tunnel overlay end to end, audited.
	OverlayFlows  int           // distinct overlay connections per round (default 24)
	OverlayRounds int           // rounds of fresh connections (default 3)
	OverlayIdle   time.Duration // conntrack idle on the overlay edge (default 150ms)
	AuditInterval time.Duration // anti-entropy period (default 25ms)
}

func (cfg *E15Config) fill() {
	if cfg.Flows <= 0 {
		cfg.Flows = 3000
	}
	if cfg.Skew <= 1 {
		cfg.Skew = 1.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 400 * time.Millisecond
	}
	if cfg.Idle <= 0 {
		cfg.Idle = 40 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	if cfg.OverlayFlows <= 0 {
		cfg.OverlayFlows = 24
	}
	if cfg.OverlayRounds <= 0 {
		cfg.OverlayRounds = 3
	}
	if cfg.OverlayIdle <= 0 {
		cfg.OverlayIdle = 150 * time.Millisecond
	}
	if cfg.AuditInterval <= 0 {
		cfg.AuditInterval = 25 * time.Millisecond
	}
}

// E15Variant is one measured rule shape.
type E15Variant struct {
	Name         string  `json:"name"`
	FramesPerSec float64 `json:"frames_per_sec"`
	OverheadPct  float64 `json:"overhead_pct"` // vs the plain variant
}

// E15Result is the machine-readable output (BENCH_e15.json).
type E15Result struct {
	Flows     int     `json:"flows"`
	Skew      float64 `json:"skew"`
	IdleMS    float64 `json:"idle_ms"`
	MeasureMS int64   `json:"measure_ms"`

	Variants []E15Variant `json:"variants"`

	// Churn accounting from the full-chain scalar run.
	Occupancy      int     `json:"conntrack_occupancy"`
	Created        uint64  `json:"conns_created"`
	Expired        uint64  `json:"conns_expired"`
	ExpiryLagMaxMS float64 `json:"expiry_lag_max_ms"`
	ExpiryLagAvgMS float64 `json:"expiry_lag_avg_ms"`
	NATAllocated   uint64  `json:"nat_allocated"`
	NATReleased    uint64  `json:"nat_released"`
	NATExhausted   uint64  `json:"nat_exhausted"`

	// Overlay (part 2).
	OverlaySent       uint64  `json:"overlay_sent"`
	OverlayEchoed     uint64  `json:"overlay_echoed"`  // datagrams that crossed NAT+tunnel to the far host
	OverlayReplies    uint64  `json:"overlay_replies"` // echoes that made it back through un-NAT
	AuditsRun         uint64  `json:"audits_run"`      // audit passes during the churn window
	AuditFalseRepairs uint64  `json:"audit_false_repairs"`
	DrainMS           float64 `json:"drain_ms"` // -1: state never drained
}

// e15Pub is the NAT public address; outside the 10.0.0.0/8 workload
// range so every generated flow takes the outbound path.
var e15Pub = packet.IPv4Addr{192, 0, 2, 1}

// e15Switch builds a one-in-one-out switch whose single rule walks
// chain (registered as stages 1..len) before forwarding; an empty chain
// is plain forwarding.
func e15Switch(chain []nf.Stage) (*dataplane.Switch, error) {
	sw := twoPortSwitch(dataplane.Config{DPID: 1, DropOnMiss: true})
	acts := make([]zof.Action, 0, len(chain)+1)
	for i, st := range chain {
		if err := sw.RegisterStage(uint32(i+1), st); err != nil {
			return nil, err
		}
		acts = append(acts, zof.NF(uint32(i+1)))
	}
	acts = append(acts, zof.Output(2))
	return sw, installFlow(sw, &zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 10,
		BufferID: zof.NoBuffer, Actions: acts})
}

// e15Frames draws the zipf-churned frame stream: a population of Flows
// five-tuples, then an access order where popular flows recur fast
// enough to stay resident and the tail idles out between visits.
func e15Frames(cfg E15Config) (frames [][]byte, order []int) {
	fg := workload.NewFlowGen(cfg.Flows, cfg.Skew, cfg.Seed)
	buf := packet.NewBuffer(64)
	frames = make([][]byte, cfg.Flows)
	for i := range frames {
		frames[i] = append([]byte(nil), fg.Next().Frame(buf, 64)...)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	zipf := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Flows-1))
	order = make([]int, 1<<16)
	for i := range order {
		order[i] = int(zipf.Uint64())
	}
	return frames, order
}

// e15Measure pumps the stream through sw for d while ticking sweeps,
// and reports frames/s. burst > 1 uses the vectorized ingress path.
func e15Measure(sw *dataplane.Switch, frames [][]byte, order []int, d, tickEvery time.Duration, burst int) float64 {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				sw.Tick(now)
			}
		}
	}()
	defer close(done)
	mask := len(order) - 1
	if burst <= 1 {
		return measureRate(d, func(i int) { sw.HandleFrame(1, frames[order[i&mask]]) })
	}
	vec := make([][]byte, burst)
	return float64(burst) * measureRate(d, func(i int) {
		for j := range vec {
			vec[j] = frames[order[(i*burst+j)&mask]]
		}
		sw.HandleBurst(1, vec)
	})
}

func runE15(p Params) (*Table, any, error) {
	cfg := E15Config{Seed: p.Seed}
	if p.Quick {
		cfg.Flows = 500
		cfg.Measure = 100 * time.Millisecond
		cfg.OverlayFlows = 8
		cfg.OverlayRounds = 2
	}
	return E15StatefulNF(cfg)
}

// E15StatefulNF measures the cost and state behavior of the composable
// NF stage layer: part 1 runs zipf-churned traffic through successively
// longer stage chains on one switch; part 2 stands up a NAT'd VXLAN
// overlay across a 3-switch fabric and verifies the intended-state
// auditor never "repairs" steering rules while conntrack state churns
// underneath them.
func E15StatefulNF(cfg E15Config) (*Table, *E15Result, error) {
	cfg.fill()
	res := &E15Result{
		Flows:     cfg.Flows,
		Skew:      cfg.Skew,
		IdleMS:    ms(cfg.Idle),
		MeasureMS: cfg.Measure.Milliseconds(),
	}
	frames, order := e15Frames(cfg)

	tun := nf.TunnelConfig{
		VNI:       42,
		LocalIP:   packet.IPv4Addr{10, 200, 0, 1},
		RemoteIP:  packet.IPv4Addr{10, 200, 0, 2},
		LocalMAC:  packet.MACFromUint64(0x02e1500000a1),
		RemoteMAC: packet.MACFromUint64(0x02e1500000b1),
	}
	// Each variant walks a prefix of the full chain [conntrack, nat, encap].
	var base float64
	for _, v := range []struct {
		name          string
		stages, burst int
	}{
		{"plain", 0, 0},
		{"conntrack", 1, 0},
		{"ct+nat+encap", 3, 0},
		{fmt.Sprintf("ct+nat+encap burst%d", cfg.Burst), 3, cfg.Burst},
	} {
		ct := nf.NewConntrack(nf.ConntrackConfig{Idle: cfg.Idle})
		nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: e15Pub})
		sw, err := e15Switch([]nf.Stage{ct, nat, nf.NewTunnelEncap(tun)}[:v.stages])
		if err != nil {
			return nil, nil, err
		}
		fps := e15Measure(sw, frames, order, cfg.Measure, cfg.TickEvery, v.burst)
		ev := E15Variant{Name: v.name, FramesPerSec: fps}
		if base == 0 {
			base = fps
		} else {
			ev.OverheadPct = (base - fps) / base * 100
		}
		res.Variants = append(res.Variants, ev)
		// Churn accounting comes from the scalar full-chain run.
		if v.stages == 3 && v.burst == 0 {
			s := ct.StateSummary()
			res.Occupancy = s.Entries
			res.Created = s.Counters["created"]
			res.Expired = s.Counters["expired"]
			lagMax, lagAvg := ct.ExpiryLag()
			res.ExpiryLagMaxMS = ms(lagMax)
			res.ExpiryLagAvgMS = ms(lagAvg)
			ns := nat.StateSummary()
			res.NATAllocated = ns.Counters["allocated"]
			res.NATReleased = ns.Counters["released"]
			res.NATExhausted = ns.Counters["exhausted"]
		}
	}

	if err := e15Overlay(cfg, res); err != nil {
		return nil, nil, err
	}

	tbl := newTable("e15", "variant", "frames/s", "overhead")
	tbl.Notes = []string{
		fmt.Sprintf("%d zipf(%.1f) flows, conntrack idle %v; occupancy %d, created %d, expired %d",
			cfg.Flows, cfg.Skew, cfg.Idle, res.Occupancy, res.Created, res.Expired),
		fmt.Sprintf("expiry lag max %.2fms avg %.2fms; nat allocated %d released %d exhausted %d",
			res.ExpiryLagMaxMS, res.ExpiryLagAvgMS, res.NATAllocated, res.NATReleased, res.NATExhausted),
		fmt.Sprintf("overlay: %d sent, %d echoed, %d replies; %d audits, %d false repairs; drained in %.0fms",
			res.OverlaySent, res.OverlayEchoed, res.OverlayReplies,
			res.AuditsRun, res.AuditFalseRepairs, res.DrainMS),
	}
	for _, v := range res.Variants {
		over := "-"
		if v.OverheadPct != 0 {
			over = fmt.Sprintf("%.1f%%", v.OverheadPct)
		}
		tbl.AddRow(v.Name, f0(v.FramesPerSec), over)
	}
	return tbl, res, nil
}

// e15Overlay runs part 2: hostA -(SNAT, VXLAN)-> core -> hostB and
// back, with the auditor watching the steering rules the whole time.
func e15Overlay(cfg E15Config, res *E15Result) error {
	nfp := apps.NewNFPolicy()
	n, err := core.Start(core.Options{
		Graph:      topo.Linear(3, 1000),
		Apps:       []controller.App{nfp},
		Controller: controller.Config{AuditInterval: cfg.AuditInterval},
		Emu: netem.Config{
			SwitchCfg: dataplane.Config{DropOnMiss: true},
			TickEvery: cfg.TickEvery,
		},
	})
	if err != nil {
		return err
	}
	defer n.Stop()

	hostA, err := n.AddHost("hostA", 1, packet.IPv4Addr{10, 0, 0, 1})
	if err != nil {
		return err
	}
	hostB, err := n.AddHost("hostB", 3, packet.IPv4Addr{10, 0, 0, 2})
	if err != nil {
		return err
	}

	// Overlay NFs. edgeA (s1) owns conntrack+NAT and one tunnel end;
	// edgeB (s3) owns the other tunnel end. s2 is pure underlay.
	edgeA, edgeB := n.Emu.Switches[1], n.Emu.Switches[3]
	tepA, tepB := packet.IPv4Addr{10, 200, 0, 1}, packet.IPv4Addr{10, 200, 0, 2}
	macA, macB := packet.MACFromUint64(0x02e1500000a1), packet.MACFromUint64(0x02e1500000b1)
	tunA := nf.TunnelConfig{VNI: 7, LocalIP: tepA, RemoteIP: tepB, LocalMAC: macA, RemoteMAC: macB}
	tunB := nf.TunnelConfig{VNI: 7, LocalIP: tepB, RemoteIP: tepA, LocalMAC: macB, RemoteMAC: macA}
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: cfg.OverlayIdle})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: e15Pub})
	for id, st := range map[uint32]nf.Stage{1: ct, 2: nat, 3: nf.NewTunnelEncap(tunA), 4: nf.NewTunnelDecap(tunA)} {
		if err := edgeA.RegisterStage(id, st); err != nil {
			return err
		}
	}
	for id, st := range map[uint32]nf.Stage{3: nf.NewTunnelEncap(tunB), 4: nf.NewTunnelDecap(tunB)} {
		if err := edgeB.RegisterStage(id, st); err != nil {
			return err
		}
	}

	// Steering intent, installed through the audited transaction path.
	// Ports: host uplinks are port 2 on their edge; the linear fabric
	// wires s1:1-s2:1 and s2:2-s3:1.
	udpFrom := func(port uint32) zof.Match {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WInPort | zof.WEtherType | zof.WIPProto
		m.InPort, m.EtherType, m.IPProto = port, packet.EtherTypeIPv4, packet.ProtoUDP
		return m
	}
	vxlanFrom := func(port uint32) zof.Match {
		m := udpFrom(port)
		m.Wildcards &^= zof.WTPDst
		m.TPDst = nf.DefaultVXLANPort
		return m
	}
	toIP := func(ip packet.IPv4Addr) zof.Match {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEtherType
		m.EtherType = packet.EtherTypeIPv4
		m.IPDst, m.DstPrefix = ip, 32
		return m
	}
	err = nfp.Steer(n.Controller,
		// edgeA: host traffic is tracked, NAT'd, tunneled toward edgeB.
		apps.NFSteer{DPID: 1, Priority: 100, Match: udpFrom(2),
			StageIDs: []uint32{1, 2, 3}, Then: []zof.Action{zof.Output(1)}, Cookie: 0xE15001},
		// edgeA: tunnel arrivals are decapped and un-NAT'd to the host.
		apps.NFSteer{DPID: 1, Priority: 110, Match: vxlanFrom(1),
			StageIDs: []uint32{4, 2},
			Then:     []zof.Action{zof.SetEthDst(hostA.MAC), zof.Output(2)}, Cookie: 0xE15002},
		// edgeB mirrors the tunnel, without NAT.
		apps.NFSteer{DPID: 3, Priority: 110, Match: vxlanFrom(1),
			StageIDs: []uint32{4},
			Then:     []zof.Action{zof.SetEthDst(hostB.MAC), zof.Output(2)}, Cookie: 0xE15003},
		apps.NFSteer{DPID: 3, Priority: 100, Match: udpFrom(2),
			StageIDs: []uint32{3}, Then: []zof.Action{zof.Output(1)}, Cookie: 0xE15004},
		// s2 routes the underlay on outer addresses; same intent path,
		// no stages.
		apps.NFSteer{DPID: 2, Priority: 100, Match: toIP(tepB),
			Then: []zof.Action{zof.Output(2)}, Cookie: 0xE15005},
		apps.NFSteer{DPID: 2, Priority: 100, Match: toIP(tepA),
			Then: []zof.Action{zof.Output(1)}, Cookie: 0xE15006},
	)
	if err != nil {
		return fmt.Errorf("steering install: %w", err)
	}

	hostA.SeedARP(hostB.IP, hostB.MAC)
	hostB.SeedARP(e15Pub, packet.MACFromUint64(0x02e150000099)) // edgeA rewrites on the way in
	hostB.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
		hostB.SendUDP(src, dp, sp, payload)
	}

	// Let at least one audit pass see the freshly installed intent
	// before we baseline.
	time.Sleep(2 * cfg.AuditInterval)
	repairs0, audits0 := auditRepairs(n.Controller), metric(n.Controller, "controller.audit.audits")

	// Churn: rounds of fresh connections, spaced so audits interleave
	// with entry creation and expiry.
	var sent uint64
	for r := 0; r < cfg.OverlayRounds; r++ {
		for i := 0; i < cfg.OverlayFlows; i++ {
			hostA.SendUDP(hostB.IP, uint16(30000+r*1000+i), 7777, []byte("e15"))
			sent++
		}
		time.Sleep(2 * cfg.AuditInterval)
	}
	poll(5*time.Second, func() bool { return hostA.RxUDP.Load() >= sent })
	res.OverlaySent = sent
	res.OverlayEchoed = hostB.RxUDP.Load()
	res.OverlayReplies = hostA.RxUDP.Load()

	// Idle out: dynamic state must drain to zero on its own clock while
	// the steering rules stay untouched.
	start := time.Now()
	res.DrainMS = -1
	if poll(cfg.OverlayIdle+2*time.Second, func() bool { return ct.Entries() == 0 && nat.Bindings() == 0 }) {
		res.DrainMS = ms(time.Since(start))
	}
	time.Sleep(2 * cfg.AuditInterval)
	res.AuditFalseRepairs = auditRepairs(n.Controller) - repairs0
	res.AuditsRun = metric(n.Controller, "controller.audit.audits") - audits0
	return nil
}
