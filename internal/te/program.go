package te

import (
	"fmt"
	"sort"

	"repro/internal/topo"
	"repro/internal/zof"
)

// NodeProgram is the forwarding state one switch needs for one
// engineered commodity: a match, and weighted next-hop ports realized
// as a select group (or a plain output when only one next hop).
type NodeProgram struct {
	Node    topo.NodeID
	Match   zof.Match
	GroupID uint32 // 0 when a single output suffices
	Output  uint32 // egress port when GroupID == 0
	Buckets []zof.GroupBucket
}

// Program is a compiled commodity: WCMP-style weighted next hops per
// node, plus the egress rule at the destination.
type Program struct {
	Commodity CommodityAlloc
	Nodes     []NodeProgram
}

// CompileOptions tunes compilation.
type CompileOptions struct {
	// MatchFor builds the traffic selector for a commodity (required).
	MatchFor func(c CommodityAlloc) zof.Match
	// EgressPort maps the destination node to the port leaving the
	// fabric (required).
	EgressPort func(dst topo.NodeID) uint32
	// GroupIDBase numbers the generated groups (per commodity, one
	// group per node that splits). Default 1000.
	GroupIDBase uint32
}

const (
	// weightDenom quantizes split weights: bucket weights sum to it.
	weightDenom = 16
	// priority is the priority of every installed TE rule.
	priority = 400
)

// Compile turns an allocation into per-switch programs, merging each
// commodity's path rates into per-node weighted next hops (WCMP, the
// form B4 installs). If merging paths would create a forwarding loop
// for a commodity — possible when alternate paths traverse shared
// nodes in opposite directions — that commodity falls back to its
// single highest-rate path.
func Compile(a *Allocation, g *topo.Graph, opts CompileOptions) ([]Program, error) {
	if opts.MatchFor == nil || opts.EgressPort == nil {
		return nil, fmt.Errorf("te: CompileOptions.MatchFor and EgressPort are required")
	}
	if opts.GroupIDBase == 0 {
		opts.GroupIDBase = 1000
	}
	var programs []Program
	groupID := opts.GroupIDBase
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
		prog := Program{Commodity: use}
		match := opts.MatchFor(use)
		// Deterministic node order (and so group-id assignment).
		nodes := make([]topo.NodeID, 0, len(hops))
		for node := range hops {
			nodes = append(nodes, node)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, node := range nodes {
			dist := hops[node]
			np := NodeProgram{Node: node, Match: match}
			if node == use.Demand.Dst {
				np.Output = opts.EgressPort(node)
			} else if len(dist) == 1 {
				for next := range dist {
					port, ok := g.PortToward(node, next)
					if !ok {
						return nil, fmt.Errorf("te: no port %d -> %d", node, next)
					}
					np.Output = port
				}
			} else {
				// Weighted select group over next hops.
				ca := CommodityAlloc{Allocated: 0}
				var nexts []topo.NodeID
				for next, rate := range dist {
					ca.Paths = append(ca.Paths, PathAlloc{Rate: rate})
					ca.Allocated += rate
					nexts = append(nexts, next)
				}
				sortNodePaths(nexts, ca.Paths)
				weights := QuantizeSplits(ca, weightDenom)
				np.GroupID = groupID
				groupID++
				for i, next := range nexts {
					port, ok := g.PortToward(node, next)
					if !ok {
						return nil, fmt.Errorf("te: no port %d -> %d", node, next)
					}
					w := weights[i]
					if w == 0 {
						continue // below quantization floor
					}
					np.Buckets = append(np.Buckets, zof.GroupBucket{
						Weight:  uint16(w),
						Actions: []zof.Action{zof.Output(port)},
					})
				}
				if len(np.Buckets) == 1 {
					// Quantization collapsed to one hop; plain output.
					np.Output = np.Buckets[0].Actions[0].Port
					np.GroupID = 0
					np.Buckets = nil
				}
			}
			prog.Nodes = append(prog.Nodes, np)
		}
		programs = append(programs, prog)
	}
	return programs, nil
}

// nextHopRates merges path rates into per-node next-hop distributions.
// The destination node appears with an empty distribution.
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
	if _, ok := hops[c.Demand.Dst]; !ok {
		hops[c.Demand.Dst] = map[topo.NodeID]float64{}
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

// sortNodePaths orders parallel slices by node id for determinism.
func sortNodePaths(nodes []topo.NodeID, paths []PathAlloc) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j] < nodes[j-1]; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
}

// FlowMods renders a program as the wire messages to install it: one
// optional GroupMod plus one FlowMod per node.
func (p Program) FlowMods() map[topo.NodeID][]zof.Message {
	out := make(map[topo.NodeID][]zof.Message, len(p.Nodes))
	for _, np := range p.Nodes {
		var msgs []zof.Message
		var action zof.Action
		if np.GroupID != 0 {
			msgs = append(msgs, &zof.GroupMod{
				Command:   zof.GroupAdd,
				GroupType: zof.GroupTypeSelect,
				GroupID:   np.GroupID,
				Buckets:   np.Buckets,
			})
			action = zof.Group(np.GroupID)
		} else {
			action = zof.Output(np.Output)
		}
		msgs = append(msgs, &zof.FlowMod{
			Command:  zof.FlowAdd,
			Match:    np.Match,
			Priority: priority,
			BufferID: zof.NoBuffer,
			Actions:  []zof.Action{action},
		})
		out[np.Node] = msgs
	}
	return out
}
