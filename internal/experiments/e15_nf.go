package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// E15Config parameterizes the stateful-NF experiment: a NAT + tunnel
// overlay end to end, audited.
type E15Config struct {
	TickEvery     time.Duration // switch sweep period (default 5ms)
	OverlayFlows  int           // distinct overlay connections per round (default 24)
	OverlayRounds int           // rounds of fresh connections (default 3)
	OverlayIdle   time.Duration // conntrack idle on the overlay edge (default 150ms)
	AuditInterval time.Duration // anti-entropy period (default 25ms)
}

func (cfg *E15Config) fill() {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
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

// E15Result is the machine-readable output (BENCH_e15.json).
type E15Result struct {
	OverlaySent       uint64  `json:"overlay_sent"`
	OverlayEchoed     uint64  `json:"overlay_echoed"`  // datagrams that crossed NAT+tunnel to the far host
	OverlayReplies    uint64  `json:"overlay_replies"` // echoes that made it back through un-NAT
	AuditsRun         uint64  `json:"audits_run"`      // audit passes during the churn window
	AuditFalseRepairs uint64  `json:"audit_false_repairs"`
	DrainMS           float64 `json:"drain_ms"` // -1: state never drained
}

// e15Pub is the NAT public address; outside the hosts' 10.0.0.0/8, so
// only hostB's replies (dst == e15Pub) take the inbound path.
var e15Pub = packet.IPv4Addr{192, 0, 2, 1}

func runE15(p Params) (*Table, any, error) {
	cfg := E15Config{}
	if p.Quick {
		cfg.OverlayFlows = 8
		cfg.OverlayRounds = 2
	}
	return E15StatefulNF(cfg)
}

// E15StatefulNF measures the state behavior of the composable NF stage
// layer: it stands up a NAT'd VXLAN overlay across a 3-switch fabric
// and verifies the intended-state auditor never "repairs" steering
// rules while conntrack state churns underneath them. (Per-frame stage
// cost is zenbench's nf_chain workload.)
func E15StatefulNF(cfg E15Config) (*Table, *E15Result, error) {
	cfg.fill()
	res := &E15Result{}
	if err := e15Overlay(cfg, res); err != nil {
		return nil, nil, err
	}
	tbl := newTable("e15", "sent", "echoed", "replies", "audits", "false repairs", "drain")
	tbl.Notes = []string{
		fmt.Sprintf("%d rounds × %d fresh connections, conntrack idle %v, audit every %v",
			cfg.OverlayRounds, cfg.OverlayFlows, cfg.OverlayIdle, cfg.AuditInterval),
		"drain = last reply → conntrack and NAT both empty on their own clock; steering rules untouched throughout",
	}
	tbl.AddRow(
		fmt.Sprintf("%d", res.OverlaySent),
		fmt.Sprintf("%d", res.OverlayEchoed),
		fmt.Sprintf("%d", res.OverlayReplies),
		fmt.Sprintf("%d", res.AuditsRun),
		fmt.Sprintf("%d", res.AuditFalseRepairs),
		fmt.Sprintf("%.0fms", res.DrainMS),
	)
	return tbl, res, nil
}

// e15Overlay runs the scenario: hostA -(SNAT, VXLAN)-> core -> hostB and
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
