package te

import (
	"slices"
	"testing"

	"repro/internal/topo"
	"repro/internal/workload"
)

func diamondGraph() *topo.Graph {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 10})
	return g
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
	progs, err := Compile(alloc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 {
		t.Fatalf("programs = %d", len(progs))
	}
	fw := progs[0].Forwarding
	// Source splits 50/50 over its two ports.
	if want := []topo.WeightedPort{{Port: 1, Weight: 8}, {Port: 2, Weight: 8}}; !slices.Equal(fw[1], want) {
		t.Fatalf("src ports = %+v, want %+v", fw[1], want)
	}
	// Middles forward plainly toward 4.
	for _, n := range []topo.NodeID{2, 3} {
		if want := []topo.WeightedPort{{Port: 2, Weight: 16}}; !slices.Equal(fw[n], want) {
			t.Errorf("node %d ports = %+v, want %+v", n, fw[n], want)
		}
	}
	// The destination's egress is the caller's.
	if ports, ok := fw[4]; ok {
		t.Errorf("dst has ports %+v", ports)
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
	progs, err := Compile(alloc, g)
	if err != nil {
		t.Fatal(err)
	}
	src := progs[0].Forwarding[1]
	total := 0
	for _, p := range src {
		total += int(p.Weight)
	}
	if total != 16 {
		t.Fatalf("weights sum %d, want 16 (ports %+v)", total, src)
	}
	// 12/4 split expected for 75/25.
	if src[0].Weight != 12 || src[1].Weight != 4 {
		t.Errorf("weights = %d/%d, want 12/4", src[0].Weight, src[1].Weight)
	}
}

// TestCompileZeroRatePath: a path granted no rate puts weight 0 on its
// port where it branches off, and a node only it crosses gets no
// forwarding.
func TestCompileZeroRatePath(t *testing.T) {
	g := diamondGraph()
	alloc := &Allocation{
		LinkCap: map[topo.LinkKey]float64{},
		Commodities: []CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []PathAlloc{
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 4}}, Rate: 10},
				{Path: topo.Path{Nodes: []topo.NodeID{1, 3, 4}}, Rate: 0},
			},
		}},
	}
	progs, err := Compile(alloc, g)
	if err != nil {
		t.Fatal(err)
	}
	fw := progs[0].Forwarding
	if want := []topo.WeightedPort{{Port: 1, Weight: 16}, {Port: 2, Weight: 0}}; !slices.Equal(fw[1], want) {
		t.Errorf("src ports = %+v, want %+v", fw[1], want)
	}
	if ports, ok := fw[3]; ok {
		t.Errorf("node 3 carries nothing but has ports %+v", ports)
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
	progs, err := Compile(alloc, g)
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
	for node, ports := range progs[0].Forwarding {
		if len(ports) != 1 {
			t.Errorf("node %d has ports %+v, want one", node, ports)
		}
	}
}

func TestCompileSolvedWANHasNoLoops(t *testing.T) {
	// Programs compiled from real solver output on the WAN never need
	// more than the loop fallback, every node's port weights sum to
	// weightDenom, and some node splits.
	g, _ := topo.WAN(1000)
	demands := workload.Gravity(g, 12000, 9)
	alloc, err := Solve(g, demands, Config{KPaths: 4})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Compile(alloc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	groups := 0
	for _, p := range progs {
		for node, ports := range p.Forwarding {
			live, total := 0, 0
			for _, wp := range ports {
				total += int(wp.Weight)
				if wp.Weight > 0 {
					live++
				}
			}
			if total != weightDenom {
				t.Fatalf("node %d weights sum %d, want %d: %+v", node, total, weightDenom, ports)
			}
			if live > 1 {
				groups++
			}
		}
	}
	if groups == 0 {
		t.Error("WAN TE produced no multipath groups at all")
	}
}
