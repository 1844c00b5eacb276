package topo

import (
	"container/heap"
	"math"
	"sort"
)

// Path is a node sequence from source to destination inclusive.
type Path struct {
	Nodes []NodeID
	Cost  float64
}

// Len returns the hop count (edges).
func (p Path) Len() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Equal reports whether two paths visit the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
}

// WeightedPort is one of a switch's out-ports toward a destination and
// its share of the traffic, relative to the switch's other out-ports.
type WeightedPort struct {
	Port   uint32
	Weight uint16
}

// Forwarding is one destination's forwarding: each switch's weighted
// out-ports toward it.
type Forwarding map[NodeID][]WeightedPort

// pqItem is a priority-queue element for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// dijkstra computes distances from src and, per reached node, the link
// it was reached over (its far end is the predecessor), skipping down
// links and any node in banned, and any link in bannedLinks.
func (g *Graph) dijkstra(src NodeID, banned map[NodeID]bool, bannedLinks map[LinkKey]bool) (map[NodeID]float64, map[NodeID]*Link) {
	dist := map[NodeID]float64{src: 0}
	prev := map[NodeID]*Link{}
	done := map[NodeID]bool{}
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, l := range g.adj[it.node] {
			if l.Down || (bannedLinks != nil && bannedLinks[l.Key()]) {
				continue
			}
			peer, _, _, _ := l.Other(it.node)
			if banned != nil && banned[peer] {
				continue
			}
			nd := it.dist + l.metric()
			if old, ok := dist[peer]; !ok || nd < old {
				dist[peer] = nd
				prev[peer] = l
				heap.Push(q, pqItem{peer, nd})
			}
		}
	}
	return dist, prev
}

// ShortestPath returns the minimum-metric path from src to dst over
// live links, or ok=false if unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.shortestPathAvoiding(src, dst, nil, nil)
}

// ShortestPathAvoiding is ShortestPath constrained to avoid the given
// nodes and links (either map may be nil). Source and destination are
// never treated as banned.
func (g *Graph) ShortestPathAvoiding(src, dst NodeID, bannedNodes map[NodeID]bool, bannedLinks map[LinkKey]bool) (Path, bool) {
	if bannedNodes != nil && (bannedNodes[src] || bannedNodes[dst]) {
		cp := make(map[NodeID]bool, len(bannedNodes))
		for n, v := range bannedNodes {
			cp[n] = v
		}
		delete(cp, src)
		delete(cp, dst)
		bannedNodes = cp
	}
	return g.shortestPathAvoiding(src, dst, bannedNodes, bannedLinks)
}

func (g *Graph) shortestPathAvoiding(src, dst NodeID, banned map[NodeID]bool, bannedLinks map[LinkKey]bool) (Path, bool) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, true
	}
	dist, prev := g.dijkstra(src, banned, bannedLinks)
	d, ok := dist[dst]
	if !ok {
		return Path{}, false
	}
	var nodes []NodeID
	for n := dst; ; {
		nodes = append(nodes, n)
		if n == src {
			break
		}
		n, _, _, _ = prev[n].Other(n)
	}
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	return Path{Nodes: nodes, Cost: d}, true
}

// Distances returns the metric distance from src to every reachable node.
func (g *Graph) Distances(src NodeID) map[NodeID]float64 {
	dist, _ := g.dijkstra(src, nil, nil)
	return dist
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// nondecreasing cost order (Yen's algorithm).
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		// For each spur node on the previous path...
		for i := 0; i < len(last.Nodes)-1; i++ {
			spur := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]
			// Ban links used by previous paths sharing this root.
			bannedLinks := map[LinkKey]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && samePrefix(p.Nodes, rootNodes) {
					if l := g.linkBetween(p.Nodes[i], p.Nodes[i+1]); l != nil {
						bannedLinks[l.Key()] = true
					}
				}
			}
			// Ban root nodes except the spur to keep paths simple.
			bannedNodes := map[NodeID]bool{}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				bannedNodes[n] = true
			}
			spurPath, ok := g.shortestPathAvoiding(spur, dst, bannedNodes, bannedLinks)
			if !ok {
				continue
			}
			total := Path{
				Nodes: append(append([]NodeID{}, rootNodes...), spurPath.Nodes[1:]...),
				Cost:  g.pathCost(rootNodes) + spurPath.Cost,
			}
			if !containsPath(candidates, total) && !containsPath(paths, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Cost < candidates[j].Cost })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func samePrefix(p, prefix []NodeID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

// linkBetween returns the cheapest live link joining a and b, or nil.
func (g *Graph) linkBetween(a, b NodeID) *Link {
	var best *Link
	for _, l := range g.adj[a] {
		if l.Down {
			continue
		}
		peer, _, _, _ := l.Other(a)
		if peer != b {
			continue
		}
		if best == nil || l.metric() < best.metric() {
			best = l
		}
	}
	return best
}

// pathCost sums the metric along consecutive nodes.
func (g *Graph) pathCost(nodes []NodeID) float64 {
	var c float64
	for i := 0; i+1 < len(nodes); i++ {
		l := g.linkBetween(nodes[i], nodes[i+1])
		if l == nil {
			return math.Inf(1)
		}
		c += l.metric()
	}
	return c
}

// PathLinks resolves a node path into its link sequence; ok=false if
// some hop has no live link.
func (g *Graph) PathLinks(p Path) ([]*Link, bool) {
	out := make([]*Link, 0, p.Len())
	for i := 0; i+1 < len(p.Nodes); i++ {
		l := g.linkBetween(p.Nodes[i], p.Nodes[i+1])
		if l == nil {
			return nil, false
		}
		out = append(out, l)
	}
	return out, true
}

// NextHop is a neighbor on some minimum-cost path and the local port
// of the link leading to it.
type NextHop struct {
	Peer NodeID
	Port uint32
}

// ECMPNextHops returns every neighbor of src that lies on some
// minimum-cost path to dst, in ascending node order.
func (g *Graph) ECMPNextHops(src, dst NodeID) []NodeID {
	if src == dst {
		return nil
	}
	distFromDst, _ := g.dijkstra(dst, nil, nil)
	var hops []NodeID
	for _, h := range g.ecmpNextHops(src, distFromDst) {
		hops = append(hops, h.Peer)
	}
	return hops
}

// ecmpNextHops picks, given every node's distance from the
// destination, the neighbors of src one link closer to it. The sorted
// adjacency yields them in ascending peer order, each through its
// lowest-numbered cheapest link.
func (g *Graph) ecmpNextHops(src NodeID, distFromDst map[NodeID]float64) []NextHop {
	dSrc, ok := distFromDst[src]
	if !ok {
		return nil
	}
	var hops []NextHop
	for _, l := range g.adj[src] {
		if l.Down {
			continue
		}
		peer, port, _, _ := l.Other(src)
		if len(hops) > 0 && hops[len(hops)-1].Peer == peer {
			continue
		}
		if d, ok := distFromDst[peer]; ok && d+l.metric() == dSrc {
			hops = append(hops, NextHop{peer, port})
		}
	}
	return hops
}

// SpanningTree returns the set of links on a BFS spanning tree rooted
// at root, the flood-safe subset of the topology.
func (g *Graph) SpanningTree(root NodeID) map[LinkKey]bool {
	tree := map[LinkKey]bool{}
	if g.HasNode(root) {
		g.span(root, map[NodeID]bool{}, func(l *Link) { tree[l.Key()] = true })
	}
	return tree
}

// span walks root's component breadth-first over live links, marking
// nodes in visited and reporting each tree link once.
func (g *Graph) span(root NodeID, visited map[NodeID]bool, onTree func(*Link)) {
	visited[root] = true
	queue := []NodeID{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range g.adj[n] {
			if l.Down {
				continue
			}
			peer, _, _, _ := l.Other(n)
			if visited[peer] {
				continue
			}
			visited[peer] = true
			onTree(l)
			queue = append(queue, peer)
		}
	}
}
