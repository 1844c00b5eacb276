package topo

import (
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable, version-stamped view of a graph, safe for
// any number of concurrent readers. The owner of a mutable Graph
// publishes a new one whenever the graph changes; readers route on the
// one they loaded. What readers derive from it per query — the
// shortest-path tree from a source, the flood spanning forest — is
// memoised inside the snapshot on first use, so a cache lives exactly
// as long as the topology it was computed from and nothing ever
// invalidates one.
type Snapshot struct {
	version uint64
	g       *Graph // private copy; never mutated after construction

	// trees[index[n]] is n's shortest-path tree, built on first use.
	// Racing builders compute the same tree, so either store wins.
	index map[NodeID]int
	trees []atomic.Pointer[spfTree]

	floodOnce sync.Once
	flood     map[NodeID][]uint32
}

// spfTree is dijkstra's result from one source.
type spfTree struct {
	dist map[NodeID]float64
	prev map[NodeID]*Link
}

// Snapshot freezes a copy of g under the given version stamp.
func (g *Graph) Snapshot(version uint64) *Snapshot {
	s := &Snapshot{version: version, g: g.Clone(), index: make(map[NodeID]int, len(g.nodes))}
	for i, n := range s.g.Nodes() {
		s.index[n] = i
	}
	s.trees = make([]atomic.Pointer[spfTree], len(s.index))
	return s
}

// Version returns the stamp the snapshot was published under.
func (s *Snapshot) Version() uint64 { return s.version }

// NumLinks counts the graph's links, down ones included.
func (s *Snapshot) NumLinks() int { return s.g.NumLinks() }

// Links returns a copy of every link, down ones included, in
// deterministic key order.
func (s *Snapshot) Links() []Link {
	ls := s.g.Links()
	out := make([]Link, len(ls))
	for i, l := range ls {
		out[i] = *l
	}
	return out
}

// Graph returns a private mutable copy of the graph, for planners that
// want to break links and see what happens.
func (s *Snapshot) Graph() *Graph { return s.g.Clone() }

// Route is a shortest path with the out-port of every hop.
type Route struct {
	Path
	// Ports[i] is the port on Nodes[i] that leads to Nodes[i+1].
	Ports []uint32
}

func (s *Snapshot) tree(src NodeID) *spfTree {
	i, ok := s.index[src]
	if !ok {
		return nil
	}
	t := s.trees[i].Load()
	if t == nil {
		t = &spfTree{}
		t.dist, t.prev = s.g.dijkstra(src, nil, nil)
		s.trees[i].Store(t)
	}
	return t
}

// Path returns the minimum-metric path from src to dst over live
// links, read off src's memoised tree: the same snapshot gives the same
// equal-cost choice every time.
func (s *Snapshot) Path(src, dst NodeID) (Route, bool) {
	t := s.tree(src)
	if t == nil {
		return Route{}, false
	}
	cost, ok := t.dist[dst]
	if !ok {
		return Route{}, false
	}
	hops := 0
	for n := dst; n != src; hops++ {
		n, _, _, _ = t.prev[n].Other(n)
	}
	r := Route{Path: Path{Nodes: make([]NodeID, hops+1), Cost: cost}, Ports: make([]uint32, hops)}
	n := dst
	for i := hops; i > 0; i-- {
		r.Nodes[i] = n
		n, _, r.Ports[i-1], _ = t.prev[n].Other(n)
	}
	r.Nodes[0] = src
	return r, true
}

// ECMPNextHops returns every neighbor of src that lies on some
// minimum-cost path to dst, with the port toward it, in ascending node
// order.
func (s *Snapshot) ECMPNextHops(src, dst NodeID) []NextHop {
	t := s.tree(dst)
	if t == nil || src == dst {
		return nil
	}
	return s.g.ecmpNextHops(src, t.dist)
}

// FloodPorts returns node's inter-switch ports that lie on the flood
// spanning forest — one BFS tree per connected component over live
// links, each rooted at its lowest node, so a partitioned fabric still
// floods inside every part. The slice is shared; do not modify it.
func (s *Snapshot) FloodPorts(node NodeID) []uint32 {
	s.floodOnce.Do(func() {
		s.flood = make(map[NodeID][]uint32, len(s.index))
		visited := make(map[NodeID]bool, len(s.index))
		for _, root := range s.g.Nodes() {
			if visited[root] {
				continue
			}
			s.g.span(root, visited, func(l *Link) {
				s.flood[l.A] = append(s.flood[l.A], l.APort)
				s.flood[l.B] = append(s.flood[l.B], l.BPort)
			})
		}
	})
	return s.flood[node]
}
