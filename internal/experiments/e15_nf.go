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

// The switch sweep period, the overlay edge's conntrack idle timeout
// and the anti-entropy period of every E15 run.
const (
	e15Tick  = 5 * time.Millisecond
	e15Idle  = 150 * time.Millisecond
	e15Audit = 25 * time.Millisecond
)

// E15StatefulNF measures the state behavior of the composable NF stage
// layer: it stands up a NAT'd VXLAN overlay across a 3-switch fabric
// and verifies the intended-state auditor never "repairs" steering
// rules while conntrack state churns underneath them. (Per-frame stage
// cost is zenbench's nf_chain workload.)
func E15StatefulNF(p Params) (*Table, *E15Result, error) {
	flows, rounds := 24, 3
	if p.Quick {
		flows, rounds = 8, 2
	}
	res, err := e15Overlay(flows, rounds)
	if err != nil {
		return nil, nil, err
	}
	tbl := newTable("e15", "sent", "echoed", "replies", "audits", "false repairs", "drain")
	tbl.Notes = []string{
		fmt.Sprintf("%d rounds × %d fresh connections, conntrack idle %v, audit every %v",
			rounds, flows, e15Idle, e15Audit),
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
// back, rounds rounds of flows fresh connections, with the auditor
// watching the steering rules the whole time.
func e15Overlay(flows, rounds int) (*E15Result, error) {
	nfp := apps.NewNFPolicy()
	n, err := core.Start(core.Options{
		Graph:      topo.Linear(3, 1000),
		Apps:       []controller.App{nfp},
		Controller: controller.Config{AuditInterval: e15Audit},
		Emu: netem.Config{
			SwitchCfg: dataplane.Config{DropOnMiss: true},
			TickEvery: e15Tick,
		},
	})
	if err != nil {
		return nil, err
	}
	defer n.Stop()

	hostA, err := n.AddHost("hostA", 1, packet.IPv4Addr{10, 0, 0, 1})
	if err != nil {
		return nil, err
	}
	hostB, err := n.AddHost("hostB", 3, packet.IPv4Addr{10, 0, 0, 2})
	if err != nil {
		return nil, err
	}

	// Overlay NFs. edgeA (s1) owns conntrack+NAT and one tunnel end;
	// edgeB (s3) owns the other tunnel end. s2 is pure underlay.
	edgeA, edgeB := n.Emu.Switches[1], n.Emu.Switches[3]
	tepA, tepB := packet.IPv4Addr{10, 200, 0, 1}, packet.IPv4Addr{10, 200, 0, 2}
	macA, macB := packet.MACFromUint64(0x02e1500000a1), packet.MACFromUint64(0x02e1500000b1)
	tunA := nf.TunnelConfig{VNI: 7, LocalIP: tepA, RemoteIP: tepB, LocalMAC: macA, RemoteMAC: macB}
	tunB := nf.TunnelConfig{VNI: 7, LocalIP: tepB, RemoteIP: tepA, LocalMAC: macB, RemoteMAC: macA}
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: e15Idle})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: e15Pub})
	for id, st := range map[uint32]nf.Stage{1: ct, 2: nat, 3: nf.NewTunnelEncap(tunA), 4: nf.NewTunnelDecap(tunA)} {
		if err := edgeA.RegisterStage(id, st); err != nil {
			return nil, err
		}
	}
	for id, st := range map[uint32]nf.Stage{3: nf.NewTunnelEncap(tunB), 4: nf.NewTunnelDecap(tunB)} {
		if err := edgeB.RegisterStage(id, st); err != nil {
			return nil, err
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
		return nil, fmt.Errorf("steering install: %w", err)
	}

	hostA.SeedARP(hostB.IP, hostB.MAC)
	hostB.SeedARP(e15Pub, packet.MACFromUint64(0x02e150000099)) // edgeA rewrites on the way in
	hostB.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
		hostB.SendUDP(src, dp, sp, payload)
	}

	// Let at least one audit pass per switch see the freshly installed
	// intent before we baseline.
	passes := uint64(len(n.Emu.Switches))
	if waitAudits(n.Controller, passes, 5*time.Second) < passes {
		return nil, fmt.Errorf("fewer than %d audit passes over the installed steering", passes)
	}
	repairs0, audits0 := auditRepairs(n.Controller), metric(n.Controller, "controller.audit.audits")

	// Churn: rounds of fresh connections, spaced so audits interleave
	// with entry creation and expiry.
	res := &E15Result{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < flows; i++ {
			hostA.SendUDP(hostB.IP, uint16(30000+r*1000+i), 7777, []byte("e15"))
			res.OverlaySent++
		}
		time.Sleep(2 * e15Audit)
	}
	poll(5*time.Second, func() bool { return hostA.RxUDP.Load() >= res.OverlaySent })
	res.OverlayEchoed = hostB.RxUDP.Load()
	res.OverlayReplies = hostA.RxUDP.Load()

	// Idle out: dynamic state must drain to zero on its own clock while
	// the steering rules stay untouched, through two more audit passes
	// per switch.
	start := time.Now()
	res.DrainMS = -1
	if poll(e15Idle+2*time.Second, func() bool { return ct.Entries() == 0 && nat.Bindings() == 0 }) {
		res.DrainMS = ms(time.Since(start))
	}
	if waitAudits(n.Controller, 2*passes, 5*time.Second) < 2*passes {
		return nil, fmt.Errorf("fewer than %d audit passes after the drain", 2*passes)
	}
	res.AuditFalseRepairs = auditRepairs(n.Controller) - repairs0
	res.AuditsRun = metric(n.Controller, "controller.audit.audits") - audits0
	return res, nil
}
