package core

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/packet"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/zof"
)

// TestWCMPTrafficSplit closes the TE loop end to end: a solver
// allocation for one commodity over the diamond is compiled to WCMP
// forwarding and then to rules (select group at the source), installed
// through the real control channel, and verified by pushing many
// distinct flows and checking both sides of the diamond carried
// traffic in roughly the engineered proportion.
func TestWCMPTrafficSplit(t *testing.T) {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 10})

	n, err := Start(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// Hosts: sender on s1, receiver on s4.
	h1, err := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	h4, err := n.AddHost("h4", 4, ip(10, 0, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	at4, _ := n.Emu.Attachment("h4")
	at1, _ := n.Emu.Attachment("h1")

	// Engineered state: 50/50 split for traffic to h4.
	alloc := &te.Allocation{
		LinkCap: map[topo.LinkKey]float64{},
		Commodities: []te.CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []te.PathAlloc{
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 4}}, Rate: 5},
				{Path: topo.Path{Nodes: []topo.NodeID{1, 3, 4}}, Rate: 5},
			},
		}},
	}
	match := zof.MatchAll()
	match.Wildcards &^= zof.WEtherType
	match.EtherType = packet.EtherTypeIPv4
	match.IPDst = h4.IP
	match.DstPrefix = 32
	progs, err := te.Compile(alloc, g)
	if err != nil {
		t.Fatal(err)
	}
	// Install over the wire; also a reverse path so ARP replies and
	// return traffic reach h1 (plain flows, priority below the TE one).
	for _, prog := range progs {
		prog.Forwarding[4] = []topo.WeightedPort{{Port: at4.Port, Weight: 1}}
		rules := controller.CompileForwarding(prog.Forwarding, controller.RuleTemplate{Match: match, Priority: 400, GroupID: 1})
		for node, msgs := range rules {
			sc, ok := n.Controller.Switch(uint64(node))
			if !ok {
				t.Fatalf("no switch %d", node)
			}
			for _, msg := range msgs {
				if err := sc.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	revMatch := zof.MatchAll()
	revMatch.Wildcards &^= zof.WEtherType
	revMatch.EtherType = packet.EtherTypeIPv4
	revMatch.IPDst = h1.IP
	revMatch.DstPrefix = 32
	reverse := map[topo.NodeID]uint32{4: 1, 2: 1, 1: at1.Port} // 4->2->1->h1
	for node, port := range reverse {
		sc, _ := n.Controller.Switch(uint64(node))
		if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: revMatch,
			Priority: 300, BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(port)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Static ARP on both ends: this scenario is purely proactive, and
	// flooding broadcasts on a looped diamond would storm.
	h1.SeedARP(h4.IP, h4.MAC)
	h4.SeedARP(h1.IP, h1.MAC)
	if err := n.Controller.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Push 128 distinct flows.
	const flows = 128
	for i := 0; i < flows; i++ {
		h1.SendUDP(h4.IP, uint16(20000+i), uint16(1000+i%7), []byte("wcmp"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for h4.RxUDP.Load() < flows && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h4.RxUDP.Load(); got < flows*9/10 {
		t.Fatalf("h4 received %d of %d", got, flows)
	}

	// The split: s1's two inter-switch links both carried traffic,
	// roughly balanced (select hashing: expect each side well above a
	// token share).
	up, _, _, _, err := n.Emu.LinkStats(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	down, _, _, _, err := n.Emu.LinkStats(topo.LinkKey{A: 1, B: 3, APort: 2, BPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := up + down
	if total < flows {
		t.Fatalf("links carried %d frames, want >= %d", total, flows)
	}
	frac := float64(up) / float64(total)
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("split %.2f/%.2f too lopsided for 8/8 weights (up=%d down=%d)",
			frac, 1-frac, up, down)
	}
	t.Logf("WCMP split: up=%d down=%d (%.2f/%.2f)", up, down, frac, 1-frac)
}
