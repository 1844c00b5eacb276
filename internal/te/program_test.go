package te

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/zof"
)

func diamondGraph() *topo.Graph {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 10})
	return g
}

func testCompileOpts() CompileOptions {
	return CompileOptions{
		MatchFor: func(c CommodityAlloc) zof.Match {
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEtherType
			m.EtherType = packet.EtherTypeIPv4
			m.IPDst = packet.IPv4Addr{10, 0, 0, byte(c.Demand.Dst)}
			m.DstPrefix = 32
			return m
		},
		EgressPort: func(topo.NodeID) uint32 { return 99 },
	}
}

func TestCompileDiamondSplit(t *testing.T) {
	g := diamondGraph()
	up := topo.Path{Nodes: []topo.NodeID{1, 2, 4}, Cost: 2}
	down := topo.Path{Nodes: []topo.NodeID{1, 3, 4}, Cost: 2}
	alloc := &Allocation{
		LinkCap: map[topo.LinkKey]float64{},
		Commodities: []CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []PathAlloc{
				{Path: up, Rate: 5},
				{Path: down, Rate: 5},
			},
		}},
	}
	progs, err := Compile(alloc, g, testCompileOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 {
		t.Fatalf("programs = %d", len(progs))
	}
	byNode := map[topo.NodeID]NodeProgram{}
	for _, np := range progs[0].Nodes {
		byNode[np.Node] = np
	}
	// Source splits 50/50 via a select group.
	src := byNode[1]
	if src.GroupID == 0 || len(src.Buckets) != 2 {
		t.Fatalf("src program = %+v", src)
	}
	if src.Buckets[0].Weight != 8 || src.Buckets[1].Weight != 8 {
		t.Errorf("weights = %d/%d", src.Buckets[0].Weight, src.Buckets[1].Weight)
	}
	// Middles forward plainly toward 4.
	if byNode[2].GroupID != 0 || byNode[2].Output != 2 {
		t.Errorf("node2 = %+v", byNode[2])
	}
	if byNode[3].GroupID != 0 || byNode[3].Output != 2 {
		t.Errorf("node3 = %+v", byNode[3])
	}
	// Destination egresses on the provided port.
	if byNode[4].Output != 99 {
		t.Errorf("dst = %+v", byNode[4])
	}
	// Rendering: src gets group+flow, middles get just a flow.
	msgs := progs[0].FlowMods()
	if len(msgs[1]) != 2 {
		t.Fatalf("src messages = %d", len(msgs[1]))
	}
	if _, ok := msgs[1][0].(*zof.GroupMod); !ok {
		t.Error("first src message not a GroupMod")
	}
	if len(msgs[2]) != 1 || len(msgs[4]) != 1 {
		t.Error("middle/dst message counts wrong")
	}
}

func TestCompileUnevenSplitQuantization(t *testing.T) {
	g := diamondGraph()
	alloc := &Allocation{
		LinkCap: map[topo.LinkKey]float64{},
		Commodities: []CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []PathAlloc{
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 4}}, Rate: 7.5},
				{Path: topo.Path{Nodes: []topo.NodeID{1, 3, 4}}, Rate: 2.5},
			},
		}},
	}
	progs, err := Compile(alloc, g, testCompileOpts())
	if err != nil {
		t.Fatal(err)
	}
	var src NodeProgram
	for _, np := range progs[0].Nodes {
		if np.Node == 1 {
			src = np
		}
	}
	total := 0
	for _, b := range src.Buckets {
		total += int(b.Weight)
	}
	if total != 16 {
		t.Fatalf("weights sum %d, want 16 (buckets %+v)", total, src.Buckets)
	}
	// 12/4 split expected for 75/25.
	if src.Buckets[0].Weight != 12 || src.Buckets[1].Weight != 4 {
		t.Errorf("weights = %d/%d, want 12/4", src.Buckets[0].Weight, src.Buckets[1].Weight)
	}
}

func TestCompileLoopFallback(t *testing.T) {
	// Two paths traversing 2-3 in opposite directions: merged next-hop
	// graph has a 2<->3 cycle, so compilation must fall back to the
	// single fattest path.
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1})
	g.AddLink(topo.Link{A: 2, B: 3, APort: 2, BPort: 2})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 3, BPort: 1})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 3, BPort: 2})
	alloc := &Allocation{
		LinkCap: map[topo.LinkKey]float64{},
		Commodities: []CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []PathAlloc{
				// 1 -> 2 -> 3 -> 4 (via 2-3)
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 3, 4}}, Rate: 6},
				// 1 -> 3 -> 2 -> 4 (via 3-2, opposite direction)
				{Path: topo.Path{Nodes: []topo.NodeID{1, 3, 2, 4}}, Rate: 4},
			},
		}},
	}
	progs, err := Compile(alloc, g, testCompileOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(progs[0].Commodity.Paths) != 1 {
		t.Fatalf("fallback kept %d paths", len(progs[0].Commodity.Paths))
	}
	if progs[0].Commodity.Paths[0].Rate != 6 {
		t.Errorf("fallback kept rate %v, want the fattest (6)", progs[0].Commodity.Paths[0].Rate)
	}
	// No groups needed: single path.
	for _, np := range progs[0].Nodes {
		if np.GroupID != 0 {
			t.Errorf("unexpected group at node %d", np.Node)
		}
	}
}

func TestCompileSolvedWANHasNoLoops(t *testing.T) {
	// Programs compiled from real solver output on the WAN never need
	// more than the loop fallback, and every node program's next hops
	// reach the destination.
	g, _ := topo.WAN(1000)
	demands := workload.Gravity(g, 12000, 9)
	alloc, err := Solve(g, demands, Config{KPaths: 4})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Compile(alloc, g, testCompileOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	groups := 0
	for _, p := range progs {
		for _, np := range p.Nodes {
			if np.GroupID != 0 {
				groups++
				if len(np.Buckets) < 2 {
					t.Fatalf("degenerate group at node %d: %+v", np.Node, np)
				}
			}
		}
	}
	if groups == 0 {
		t.Error("WAN TE produced no multipath groups at all")
	}
}

func TestCompileRequiresOptions(t *testing.T) {
	if _, err := Compile(&Allocation{}, topo.New(), CompileOptions{}); err == nil {
		t.Fatal("missing options accepted")
	}
}
