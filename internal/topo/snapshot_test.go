package topo

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestRemoveNode(t *testing.T) {
	g := Linear(3, 1000)
	if !g.RemoveNode(2) || g.RemoveNode(2) {
		t.Fatal("RemoveNode(2) should report presence once")
	}
	if g.HasNode(2) || g.NumNodes() != 2 || g.NumLinks() != 0 {
		t.Fatalf("after RemoveNode: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if len(g.Neighbors(1)) != 0 || len(g.Neighbors(3)) != 0 {
		t.Error("removed node's links still in its peers' adjacency")
	}
}

// TestShortestPathIgnoresInsertionOrder: the same links added in a
// different order — what a Clone ranging over a map amounts to — must
// give the same equal-cost choice.
func TestShortestPathIgnoresInsertionOrder(t *testing.T) {
	ref, _, err := FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	links := ref.Links()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := New()
		for _, i := range rng.Perm(len(links)) {
			g.AddLink(*links[i])
		}
		for _, src := range ref.Nodes() {
			for _, dst := range ref.Nodes() {
				want, _ := ref.ShortestPath(src, dst)
				got, ok := g.ShortestPath(src, dst)
				if !ok || !got.Equal(want) {
					t.Fatalf("trial %d: %d->%d = %v, want %v", trial, src, dst, got.Nodes, want.Nodes)
				}
			}
		}
	}
}

func TestSnapshotPath(t *testing.T) {
	g, _, err := FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Snapshot(7)
	if s.Version() != 7 || s.NumLinks() != g.NumLinks() {
		t.Fatalf("snapshot = v%d, %d links", s.Version(), s.NumLinks())
	}
	// The snapshot is a copy: breaking the graph afterwards changes
	// nothing it answers.
	for _, l := range g.Links() {
		g.SetLinkDown(l.Key(), true)
	}
	ref := s.Graph()
	for _, src := range ref.Nodes() {
		for _, dst := range ref.Nodes() {
			want, _ := ref.ShortestPath(src, dst)
			got, ok := s.Path(src, dst)
			if !ok || got.Cost != want.Cost || len(got.Ports) != got.Len() {
				t.Fatalf("%d->%d = %+v ok=%v, want cost %v", src, dst, got, ok, want.Cost)
			}
			for i, port := range got.Ports {
				if p, ok := ref.PortToward(got.Nodes[i], got.Nodes[i+1]); !ok || p != port {
					t.Fatalf("%d->%d hop %d leaves by port %d, PortToward says %d (%v)", src, dst, i, port, p, ok)
				}
			}
			if again, _ := s.Path(src, dst); !reflect.DeepEqual(again, got) {
				t.Fatalf("%d->%d changed between queries: %v then %v", src, dst, got.Nodes, again.Nodes)
			}
		}
	}
	if _, ok := s.Path(1, 999); ok {
		t.Error("path to an unknown node")
	}
	if _, ok := s.Path(999, 1); ok {
		t.Error("path from an unknown node")
	}
}

func TestSnapshotECMPNextHops(t *testing.T) {
	g, edges, err := FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Snapshot(1)
	src, dst := edges[0], edges[len(edges)-1]
	hops := s.ECMPNextHops(src, dst)
	want := g.ECMPNextHops(src, dst)
	if len(hops) != len(want) || len(hops) < 2 {
		t.Fatalf("next hops = %v, graph says %v", hops, want)
	}
	for i, h := range hops {
		if p, ok := g.PortToward(src, h.Peer); h.Peer != want[i] || !ok || p != h.Port {
			t.Errorf("hop %d = %+v, want peer %d port %d", i, h, want[i], p)
		}
	}
	if s.ECMPNextHops(src, src) != nil || s.ECMPNextHops(src, 999) != nil {
		t.Error("next hops toward self or an unknown node")
	}
}

// TestSnapshotFloodForest: the flood-safe ports form a spanning tree
// of every component, not only of the one the lowest node sits in.
func TestSnapshotFloodForest(t *testing.T) {
	g := Ring(4, 1000) // 1-2-3-4-1: one link must stay off the tree
	// A second component, and an island.
	g.AddLink(Link{A: 10, B: 11, APort: 1, BPort: 1})
	g.AddLink(Link{A: 11, B: 12, APort: 2, BPort: 1})
	g.AddNode(20)
	s := g.Snapshot(1)
	onTree := 0
	for _, n := range g.Nodes() {
		onTree += len(s.FloodPorts(n))
	}
	// 3 tree links in the ring + 2 in the line, two ports each.
	if onTree != 2*(3+2) {
		t.Fatalf("%d flood ports, want %d", onTree, 2*(3+2))
	}
	if got := s.FloodPorts(11); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("flood ports of 11 = %v, want [1 2]", got)
	}
	if got := s.FloodPorts(20); len(got) != 0 {
		t.Errorf("island floods on %v", got)
	}
	// Down links are not flood-safe.
	g.SetLinkDown((&Link{A: 10, B: 11, APort: 1, BPort: 1}).Key(), true)
	if got := g.Snapshot(2).FloodPorts(10); len(got) != 0 {
		t.Errorf("flood over a down link: %v", got)
	}
}
