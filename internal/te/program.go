package te

import (
	"fmt"
	"slices"

	"repro/internal/topo"
)

// Program is one compiled commodity: the commodity as compiled (after
// any loop fallback), and its forwarding — at every node its paths
// cross before the destination, the out-ports toward its next hops,
// weighted by the rate each carries (WCMP, the form B4 installs).
type Program struct {
	Commodity  CommodityAlloc
	Forwarding topo.Forwarding
}

// weightDenom quantizes split weights: a node's port weights sum to it.
const weightDenom = 16

// Compile turns an allocation into one program per routed commodity,
// merging each commodity's path rates into per-node weighted next hops.
// A port whose share falls below the quantization floor keeps weight
// 0. The destination is not in the forwarding: its egress port is the
// caller's. If merging paths would create a forwarding loop for a
// commodity — possible when alternate paths traverse shared nodes in
// opposite directions — that commodity falls back to its single
// highest-rate path.
func Compile(a *Allocation, g *topo.Graph) ([]Program, error) {
	var programs []Program
	for _, c := range a.Commodities {
		if c.Allocated <= 0 || len(c.Paths) == 0 {
			continue
		}
		use := c
		hops := nextHopRates(use)
		if hasLoop(hops, use.Demand.Dst) {
			// Degenerate merge: keep only the fattest path.
			best := use.Paths[0]
			for _, p := range use.Paths[1:] {
				if p.Rate > best.Rate {
					best = p
				}
			}
			use.Paths = []PathAlloc{best}
			hops = nextHopRates(use)
		}
		fw := make(topo.Forwarding, len(hops))
		for node, dist := range hops {
			nexts := make([]topo.NodeID, 0, len(dist))
			for next := range dist {
				nexts = append(nexts, next)
			}
			slices.Sort(nexts)
			ca := CommodityAlloc{}
			for _, next := range nexts {
				ca.Paths = append(ca.Paths, PathAlloc{Rate: dist[next]})
				ca.Allocated += dist[next]
			}
			if ca.Allocated <= 0 {
				continue // only zero-rate paths cross node: it forwards nothing
			}
			weights := QuantizeSplits(ca, weightDenom)
			ports := make([]topo.WeightedPort, len(nexts))
			for i, next := range nexts {
				port, ok := g.PortToward(node, next)
				if !ok {
					return nil, fmt.Errorf("te: no port %d -> %d", node, next)
				}
				ports[i] = topo.WeightedPort{Port: port, Weight: uint16(weights[i])}
			}
			fw[node] = ports
		}
		programs = append(programs, Program{Commodity: use, Forwarding: fw})
	}
	return programs, nil
}

// nextHopRates merges path rates into per-node next-hop distributions.
func nextHopRates(c CommodityAlloc) map[topo.NodeID]map[topo.NodeID]float64 {
	hops := make(map[topo.NodeID]map[topo.NodeID]float64)
	for _, p := range c.Paths {
		for i := 0; i+1 < len(p.Path.Nodes); i++ {
			node, next := p.Path.Nodes[i], p.Path.Nodes[i+1]
			dist := hops[node]
			if dist == nil {
				dist = make(map[topo.NodeID]float64)
				hops[node] = dist
			}
			dist[next] += p.Rate
		}
	}
	return hops
}

// hasLoop reports whether the merged next-hop graph can cycle.
func hasLoop(hops map[topo.NodeID]map[topo.NodeID]float64, dst topo.NodeID) bool {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[topo.NodeID]int, len(hops))
	var visit func(n topo.NodeID) bool
	visit = func(n topo.NodeID) bool {
		if n == dst {
			return false
		}
		switch state[n] {
		case inStack:
			return true
		case done:
			return false
		}
		state[n] = inStack
		for next := range hops[n] {
			if visit(next) {
				return true
			}
		}
		state[n] = done
		return false
	}
	for n := range hops {
		if visit(n) {
			return true
		}
	}
	return false
}
