package topo

import (
	"math/rand"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := New()
	l := g.AddLink(Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 100})
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("AddLink did not add nodes")
	}
	if g.NumLinks() != 1 || g.NumNodes() != 2 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumLinks())
	}
	peer, lp, rp, ok := l.Other(1)
	if !ok || peer != 2 || lp != 1 || rp != 1 {
		t.Fatalf("Other = %d %d %d %v", peer, lp, rp, ok)
	}
	if _, _, _, ok := l.Other(9); ok {
		t.Error("Other(9) should fail")
	}
	// Key is direction-free.
	k1 := (&Link{A: 1, B: 2, APort: 3, BPort: 4}).Key()
	k2 := (&Link{A: 2, B: 1, APort: 4, BPort: 3}).Key()
	if k1 != k2 {
		t.Errorf("keys differ: %v vs %v", k1, k2)
	}
	if !g.RemoveLink(l.Key()) || g.NumLinks() != 0 {
		t.Error("RemoveLink failed")
	}
	if g.RemoveLink(l.Key()) {
		t.Error("double remove succeeded")
	}
	if len(g.Neighbors(1)) != 0 {
		t.Error("adjacency not cleaned")
	}
}

func TestShortestPathLinear(t *testing.T) {
	g := Linear(5, 100)
	p, ok := g.ShortestPath(1, 5)
	if !ok || p.Len() != 4 || p.Cost != 4 {
		t.Fatalf("path = %+v ok=%v", p, ok)
	}
	for i, n := range p.Nodes {
		if n != NodeID(i+1) {
			t.Fatalf("nodes = %v", p.Nodes)
		}
	}
	// Same node.
	p, ok = g.ShortestPath(3, 3)
	if !ok || p.Len() != 0 || p.Cost != 0 {
		t.Fatalf("self path = %+v", p)
	}
	// Unknown node.
	if _, ok := g.ShortestPath(1, 99); ok {
		t.Error("path to unknown node")
	}
}

func TestShortestPathRespectsMetricAndFailures(t *testing.T) {
	g := New()
	g.AddLink(Link{A: 1, B: 2, APort: 1, BPort: 1, Metric: 1})
	g.AddLink(Link{A: 2, B: 3, APort: 2, BPort: 1, Metric: 1})
	direct := g.AddLink(Link{A: 1, B: 3, APort: 2, BPort: 2, Metric: 5})
	p, _ := g.ShortestPath(1, 3)
	if p.Cost != 2 || p.Len() != 2 {
		t.Fatalf("want 2-hop path, got %+v", p)
	}
	// Fail the middle link: direct link (cost 5) takes over.
	g.SetLinkDown(LinkKey{A: 1, B: 2, APort: 1, BPort: 1}, true)
	p, ok := g.ShortestPath(1, 3)
	if !ok || p.Cost != 5 || p.Len() != 1 {
		t.Fatalf("after failure path = %+v ok=%v", p, ok)
	}
	// Fail the direct link too: unreachable.
	g.SetLinkDown(direct.Key(), true)
	if _, ok := g.ShortestPath(1, 3); ok {
		t.Error("path through failed links")
	}
	if g.Connected() {
		t.Error("graph should be disconnected")
	}
	// Restore.
	g.SetLinkDown(direct.Key(), false)
	if !g.Connected() {
		t.Error("graph should be reconnected")
	}
}

func TestDijkstraOptimalityProperty(t *testing.T) {
	// On random graphs, the Dijkstra distance to any node never exceeds
	// the cost of a random sampled walk to that node.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 12
		for i := 1; i <= n; i++ {
			g.AddNode(NodeID(i))
		}
		// Random connected-ish graph: spanning chain plus extras.
		port := map[NodeID]uint32{}
		addLink := func(a, b NodeID, m float64) {
			port[a]++
			port[b]++
			g.AddLink(Link{A: a, B: b, APort: port[a], BPort: port[b], Metric: m})
		}
		for i := 1; i < n; i++ {
			addLink(NodeID(i), NodeID(i+1), 1+rng.Float64()*9)
		}
		for e := 0; e < 10; e++ {
			a := NodeID(rng.Intn(n) + 1)
			b := NodeID(rng.Intn(n) + 1)
			if a != b {
				addLink(a, b, 1+rng.Float64()*9)
			}
		}
		dist := g.Distances(1)
		// Sample random walks; their cost must be >= dist.
		for w := 0; w < 50; w++ {
			cur := NodeID(1)
			cost := 0.0
			for step := 0; step < 8; step++ {
				nbrs := g.Neighbors(cur)
				if len(nbrs) == 0 {
					break
				}
				l := nbrs[rng.Intn(len(nbrs))]
				peer, _, _, _ := l.Other(cur)
				cost += l.metric()
				cur = peer
				if d, ok := dist[cur]; !ok || d > cost+1e-9 {
					t.Fatalf("trial %d: dist[%d]=%v > walk cost %v", trial, cur, d, cost)
				}
			}
		}
	}
}

func TestKShortestPaths(t *testing.T) {
	// Diamond: 1-2-4 and 1-3-4, plus direct 1-4 with metric 3.
	g := New()
	g.AddLink(Link{A: 1, B: 2, APort: 1, BPort: 1, Metric: 1})
	g.AddLink(Link{A: 2, B: 4, APort: 2, BPort: 1, Metric: 1})
	g.AddLink(Link{A: 1, B: 3, APort: 2, BPort: 1, Metric: 1})
	g.AddLink(Link{A: 3, B: 4, APort: 2, BPort: 2, Metric: 1})
	g.AddLink(Link{A: 1, B: 4, APort: 3, BPort: 3, Metric: 3})

	paths := g.KShortestPaths(1, 4, 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths: %+v", len(paths), paths)
	}
	// Costs nondecreasing: 2, 2, 3.
	if paths[0].Cost != 2 || paths[1].Cost != 2 || paths[2].Cost != 3 {
		t.Errorf("costs = %v %v %v", paths[0].Cost, paths[1].Cost, paths[2].Cost)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Error("costs not sorted")
		}
	}
	// All paths simple and distinct.
	for i, p := range paths {
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %d not simple: %v", i, p.Nodes)
			}
			seen[n] = true
		}
		for j := i + 1; j < len(paths); j++ {
			if p.Equal(paths[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestPathsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g, _, err := FatTree(4, 1000)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		paths := g.KShortestPaths(src, dst, 6)
		if len(paths) == 0 {
			t.Fatalf("no paths %d->%d", src, dst)
		}
		sp, _ := g.ShortestPath(src, dst)
		if paths[0].Cost != sp.Cost {
			t.Errorf("first Yen path cost %v != shortest %v", paths[0].Cost, sp.Cost)
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Cost < paths[i-1].Cost {
				t.Error("Yen costs decrease")
			}
		}
	}
}

func TestECMPNextHops(t *testing.T) {
	// Diamond: two equal-cost next hops from 1 to 4.
	g := New()
	g.AddLink(Link{A: 1, B: 2, APort: 1, BPort: 1})
	g.AddLink(Link{A: 2, B: 4, APort: 2, BPort: 1})
	g.AddLink(Link{A: 1, B: 3, APort: 2, BPort: 1})
	g.AddLink(Link{A: 3, B: 4, APort: 2, BPort: 2})
	hops := g.ECMPNextHops(1, 4)
	if len(hops) != 2 || hops[0] != 2 || hops[1] != 3 {
		t.Fatalf("hops = %v", hops)
	}
	// Direct expensive link is not an ECMP next hop.
	g.AddLink(Link{A: 1, B: 4, APort: 3, BPort: 3, Metric: 9})
	hops = g.ECMPNextHops(1, 4)
	if len(hops) != 2 {
		t.Fatalf("hops with shortcut = %v", hops)
	}
	if got := g.ECMPNextHops(4, 4); got != nil {
		t.Error("self ECMP should be nil")
	}
}

func TestSpanningTree(t *testing.T) {
	g := Ring(6, 100)
	tree := g.SpanningTree(1)
	if len(tree) != 5 {
		t.Fatalf("tree has %d links, want 5", len(tree))
	}
	// A tree never contains a cycle: n-1 edges and connects all nodes.
	// Verify connectivity using only tree links.
	g2 := New()
	for _, n := range g.Nodes() {
		g2.AddNode(n)
	}
	for _, l := range g.Links() {
		if tree[l.Key()] {
			g2.AddLink(*l)
		}
	}
	if !g2.Connected() {
		t.Error("spanning tree does not connect the graph")
	}
}

func TestPortToward(t *testing.T) {
	g := Linear(3, 100)
	p, ok := g.PortToward(2, 3)
	if !ok {
		t.Fatal("no port toward 3")
	}
	// Node 2's first port went to node 1, second to node 3.
	if p != 2 {
		t.Errorf("port = %d, want 2", p)
	}
	if _, ok := g.PortToward(1, 3); ok {
		t.Error("non-adjacent PortToward should fail")
	}
}

func TestBuilders(t *testing.T) {
	if g := Linear(4, 10); g.NumNodes() != 4 || g.NumLinks() != 3 {
		t.Errorf("linear: %d/%d", g.NumNodes(), g.NumLinks())
	}
	if g := Ring(5, 10); g.NumNodes() != 5 || g.NumLinks() != 5 {
		t.Errorf("ring: %d/%d", g.NumNodes(), g.NumLinks())
	}
	if g := Star(5, 10); g.NumNodes() != 5 || g.NumLinks() != 4 {
		t.Errorf("star: %d/%d", g.NumNodes(), g.NumLinks())
	}
	g, leaves := Tree(2, 3, 10)
	if g.NumNodes() != 1+3+9 || len(leaves) != 9 {
		t.Errorf("tree: %d nodes, %d leaves", g.NumNodes(), len(leaves))
	}
	if !g.Connected() {
		t.Error("tree disconnected")
	}
	ft, edges, err := FatTree(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores + 4 pods * (2 agg + 2 edge) = 20 nodes; 8 edge ToRs.
	if ft.NumNodes() != 20 || len(edges) != 8 {
		t.Errorf("fat-tree: %d nodes, %d edges", ft.NumNodes(), len(edges))
	}
	if !ft.Connected() {
		t.Error("fat-tree disconnected")
	}
	// Links: per pod 2*2 edge-agg = 4 -> 16; agg-core 4 per pod -> 16.
	if ft.NumLinks() != 32 {
		t.Errorf("fat-tree links = %d, want 32", ft.NumLinks())
	}
	if _, _, err := FatTree(3, 10); err == nil {
		t.Error("odd arity accepted")
	}
	wan, sites := WAN(1000)
	if wan.NumNodes() != 12 || len(sites) != 12 {
		t.Errorf("wan: %d nodes", wan.NumNodes())
	}
	if !wan.Connected() {
		t.Error("wan disconnected")
	}
	// Deterministic port assignment: no port reused on a node.
	for _, n := range wan.Nodes() {
		seen := map[uint32]bool{}
		for _, l := range wan.Neighbors(n) {
			_, lp, _, _ := l.Other(n)
			if seen[lp] {
				t.Fatalf("node %d reuses port %d", n, lp)
			}
			seen[lp] = true
		}
	}
}

func TestFatTreeECMPDiversity(t *testing.T) {
	// Hosts in different pods see multiple equal-cost paths.
	g, edges, err := FatTree(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := edges[0], edges[len(edges)-1]
	hops := g.ECMPNextHops(src, dst)
	if len(hops) != 2 {
		t.Errorf("fat-tree edge-to-edge next hops = %d, want 2 (both aggs)", len(hops))
	}
	paths := g.KShortestPaths(src, dst, 4)
	if len(paths) != 4 {
		t.Errorf("fat-tree k-paths = %d, want 4", len(paths))
	}
	for _, p := range paths[1:] {
		if p.Cost != paths[0].Cost {
			t.Errorf("fat-tree equal-cost paths differ: %v vs %v", p.Cost, paths[0].Cost)
		}
	}
}

func TestClone(t *testing.T) {
	g := Linear(3, 100)
	c := g.Clone()
	// Mutating the clone must not affect the original.
	c.SetLinkDown(LinkKey{A: 1, B: 2, APort: 1, BPort: 1}, true)
	if _, ok := g.ShortestPath(1, 3); !ok {
		t.Error("original graph affected by clone mutation")
	}
	if _, ok := c.ShortestPath(1, 3); ok {
		t.Error("clone mutation had no effect")
	}
}
