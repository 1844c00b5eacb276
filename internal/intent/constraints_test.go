package intent

import (
	"testing"

	"repro/internal/topo"
)

func pathHasNode(p topo.Path, n topo.NodeID) bool {
	for _, x := range p.Nodes {
		if x == n {
			return true
		}
	}
	return false
}

func pathUsesLink(p topo.Path, k topo.LinkKey) bool {
	for i := 0; i+1 < len(p.Nodes); i++ {
		a, b := p.Nodes[i], p.Nodes[i+1]
		if (k.A == a && k.B == b) || (k.A == b && k.B == a) {
			return true
		}
	}
	return false
}

func TestConstraintAvoidNode(t *testing.T) {
	g := diamond() // 1-2-4 and 1-3-4
	m := NewManager(g, newFakeNet().Apply)
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 1,
		Constraints: Constraints{AvoidNodes: []topo.NodeID{2}}}); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Path(1)
	if pathHasNode(p, 2) {
		t.Fatalf("path %v crosses avoided node", p.Nodes)
	}
	// Avoiding both middles: no path.
	err := m.Submit(Intent{ID: 2, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(2, 4), Priority: 1,
		Constraints: Constraints{AvoidNodes: []topo.NodeID{2, 3}}})
	if err != ErrNoPath {
		t.Fatalf("err = %v", err)
	}
	// Avoiding the source itself is ignored (src/dst exempt).
	if err := m.Submit(Intent{ID: 3, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(3, 4), Priority: 1,
		Constraints: Constraints{AvoidNodes: []topo.NodeID{1, 4, 3}}}); err != nil {
		t.Fatalf("src/dst exemption broken: %v", err)
	}
}

func TestConstraintAvoidLink(t *testing.T) {
	g := diamond()
	m := NewManager(g, newFakeNet().Apply)
	bad := topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 1,
		Constraints: Constraints{AvoidLinks: []topo.LinkKey{bad}}}); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Path(1)
	if pathUsesLink(p, bad) {
		t.Fatalf("path %v uses avoided link", p.Nodes)
	}
}

func TestConstraintWaypoint(t *testing.T) {
	// Fat-tree: force an edge-to-edge intent through a specific core.
	g, edges, err := topo.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	core := g.Nodes()[0] // cores are numbered first
	m := NewManager(g, newFakeNet().Apply)
	if err := m.Submit(Intent{ID: 1,
		Src: Endpoint{edges[0], 10}, Dst: Endpoint{edges[7], 20},
		Match: matchFor(1, 7), Priority: 1,
		Constraints: Constraints{Waypoint: core}}); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Path(1)
	if !pathHasNode(p, core) {
		t.Fatalf("path %v misses waypoint %d", p.Nodes, core)
	}
	// Path stays simple.
	seen := map[topo.NodeID]bool{}
	for _, n := range p.Nodes {
		if seen[n] {
			t.Fatalf("waypoint path not simple: %v", p.Nodes)
		}
		seen[n] = true
	}
	// Recompile after a failure on the waypoint path keeps the waypoint.
	var onPath topo.LinkKey
	found := false
	for _, l := range g.Links() {
		k := l.Key()
		if pathUsesLink(p, k) {
			onPath = k
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no link on path")
	}
	m.OnLinkDown(onPath)
	p2, ok := m.Path(1)
	if !ok {
		t.Fatal("intent lost after reroute")
	}
	if !pathHasNode(p2, core) {
		t.Fatalf("rerouted path %v dropped the waypoint", p2.Nodes)
	}
	if pathUsesLink(p2, onPath) {
		t.Fatal("rerouted path uses failed link")
	}
}

func TestConstraintWaypointContradiction(t *testing.T) {
	g := diamond()
	m := NewManager(g, newFakeNet().Apply)
	err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 1,
		Constraints: Constraints{Waypoint: 2, AvoidNodes: []topo.NodeID{2}}})
	if err != ErrNoPath {
		t.Fatalf("contradictory constraints gave %v", err)
	}
}
