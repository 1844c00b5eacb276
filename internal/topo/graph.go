// Package topo models the network graph the control plane computes
// over: switches (nodes) joined by capacitated, port-numbered links,
// with shortest-path, k-shortest-path, ECMP, spanning-tree and max-flow
// algorithms, plus builders for the canonical evaluation topologies
// (linear, ring, tree, fat-tree, WAN site graphs).
package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node; switch nodes share the datapath-ID space.
type NodeID uint64

// Link is an undirected edge between A and B, attached at the given
// port numbers, with a capacity (Mbps) and a routing metric.
type Link struct {
	A, B         NodeID
	APort, BPort uint32
	Capacity     float64 // Mbps
	Metric       float64 // routing cost; <=0 treated as 1
	Down         bool    // failed links stay in the graph but carry nothing
}

// metric returns the effective routing cost.
func (l *Link) metric() float64 {
	if l.Metric <= 0 {
		return 1
	}
	return l.Metric
}

// Other returns the far end of the link as seen from n, plus the local
// and remote port numbers.
func (l *Link) Other(n NodeID) (peer NodeID, localPort, remotePort uint32, ok bool) {
	switch n {
	case l.A:
		return l.B, l.APort, l.BPort, true
	case l.B:
		return l.A, l.BPort, l.APort, true
	}
	return 0, 0, 0, false
}

// Key canonically identifies the link regardless of direction.
func (l *Link) Key() LinkKey {
	if l.A < l.B || (l.A == l.B && l.APort <= l.BPort) {
		return LinkKey{l.A, l.B, l.APort, l.BPort}
	}
	return LinkKey{l.B, l.A, l.BPort, l.APort}
}

// LinkKey is the canonical (direction-free) identity of a link.
type LinkKey struct {
	A, B         NodeID
	APort, BPort uint32
}

// String renders the key as "a:p1-b:p2".
func (k LinkKey) String() string {
	return fmt.Sprintf("%d:%d-%d:%d", k.A, k.APort, k.B, k.BPort)
}

// Graph is a mutable multigraph. Each node's adjacency list is kept
// sorted by (peer, local port, remote port), so every traversal — and
// with it every equal-cost tie-break — is a function of the graph's
// content, not of the order its links were added in.
type Graph struct {
	nodes map[NodeID]bool
	adj   map[NodeID][]*Link
	links map[LinkKey]*Link
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]bool),
		adj:   make(map[NodeID][]*Link),
		links: make(map[LinkKey]*Link),
	}
}

// AddNode ensures n exists.
func (g *Graph) AddNode(n NodeID) {
	g.nodes[n] = true
}

// HasNode reports whether n exists.
func (g *Graph) HasNode(n NodeID) bool { return g.nodes[n] }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes and NumLinks report graph size.
func (g *Graph) NumNodes() int { return len(g.nodes) }
func (g *Graph) NumLinks() int { return len(g.links) }

// AddLink inserts l (both endpoints are added as nodes). A link with
// the same canonical key replaces the previous one. The *Link stored is
// a copy; mutate through the returned pointer or graph methods.
func (g *Graph) AddLink(l Link) *Link {
	g.AddNode(l.A)
	g.AddNode(l.B)
	cp := l
	key := cp.Key()
	if old, ok := g.links[key]; ok {
		g.removeAdj(old)
	}
	g.links[key] = &cp
	g.insertAdj(l.A, &cp)
	if l.B != l.A {
		g.insertAdj(l.B, &cp)
	}
	return &cp
}

// insertAdj places l in n's adjacency list at its sorted position.
func (g *Graph) insertAdj(n NodeID, l *Link) {
	list := g.adj[n]
	i, _ := slices.BinarySearchFunc(list, l, func(a, b *Link) int { return adjCompare(n, a, b) })
	g.adj[n] = slices.Insert(list, i, l)
}

// adjCompare orders two links incident to n by (peer, local port,
// remote port).
func adjCompare(n NodeID, a, b *Link) int {
	ap, al, ar, _ := a.Other(n)
	bp, bl, br, _ := b.Other(n)
	switch {
	case ap != bp:
		return cmp.Compare(ap, bp)
	case al != bl:
		return cmp.Compare(al, bl)
	}
	return cmp.Compare(ar, br)
}

// RemoveNode deletes n and every link incident to it, reporting
// presence.
func (g *Graph) RemoveNode(n NodeID) bool {
	if !g.nodes[n] {
		return false
	}
	for _, l := range slices.Clone(g.adj[n]) {
		g.RemoveLink(l.Key())
	}
	delete(g.adj, n)
	delete(g.nodes, n)
	return true
}

// RemoveLink deletes the link with key k, reporting presence.
func (g *Graph) RemoveLink(k LinkKey) bool {
	l, ok := g.links[k]
	if !ok {
		return false
	}
	delete(g.links, k)
	g.removeAdj(l)
	return true
}

func (g *Graph) removeAdj(l *Link) {
	filter := func(n NodeID) {
		list := g.adj[n]
		kept := list[:0]
		for _, x := range list {
			if x != l {
				kept = append(kept, x)
			}
		}
		g.adj[n] = kept
	}
	filter(l.A)
	if l.B != l.A {
		filter(l.B)
	}
}

// Link returns the link with key k.
func (g *Graph) Link(k LinkKey) (*Link, bool) {
	l, ok := g.links[k]
	return l, ok
}

// Links returns every link, in deterministic key order.
func (g *Graph) Links() []*Link {
	keys := make([]LinkKey, 0, len(g.links))
	for k := range g.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.APort != b.APort {
			return a.APort < b.APort
		}
		return a.BPort < b.BPort
	})
	out := make([]*Link, len(keys))
	for i, k := range keys {
		out[i] = g.links[k]
	}
	return out
}

// Neighbors returns the live links incident to n.
func (g *Graph) Neighbors(n NodeID) []*Link {
	return g.adj[n]
}

// SetLinkDown marks the link failed (true) or restored (false).
func (g *Graph) SetLinkDown(k LinkKey, down bool) bool {
	l, ok := g.links[k]
	if !ok {
		return false
	}
	l.Down = down
	return true
}

// PortToward returns the port on 'from' of the cheapest live link
// leading directly to 'to'.
func (g *Graph) PortToward(from, to NodeID) (uint32, bool) {
	var best *Link
	var port uint32
	for _, l := range g.adj[from] {
		if l.Down {
			continue
		}
		peer, local, _, ok := l.Other(from)
		if !ok || peer != to {
			continue
		}
		if best == nil || l.metric() < best.metric() {
			best, port = l, local
		}
	}
	return port, best != nil
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := New()
	for n := range g.nodes {
		out.AddNode(n)
	}
	for _, l := range g.links {
		out.AddLink(*l)
	}
	return out
}

// Connected reports whether every node is reachable from the first
// node over live links.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	var start NodeID
	for n := range g.nodes {
		start = n
		break
	}
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.adj[n] {
			if l.Down {
				continue
			}
			peer, _, _, _ := l.Other(n)
			if !seen[peer] {
				seen[peer] = true
				stack = append(stack, peer)
			}
		}
	}
	return len(seen) == len(g.nodes)
}
