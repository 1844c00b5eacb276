// Package update implements congestion-free network updates in the
// SWAN/zUpdate mold: moving the network between two traffic-engineered
// configurations without transient overload, despite switches applying
// changes in arbitrary order. The worst-case transient load on a link
// is the sum over commodities of the larger of their old and new
// contributions (each commodity flips atomically, but independently);
// the planner inserts linearly interpolated intermediate configurations
// until every step is safe, which scratch capacity s guarantees within
// ceil(1/s)-1 intermediate steps.
package update

import (
	"fmt"
	"math"

	"repro/internal/te"
	"repro/internal/topo"
)

// commodityKey matches commodities across configurations.
type commodityKey struct {
	src, dst topo.NodeID
}

// groupID names the select group that splits commodity k on any
// switch: the top bit set, src in the next 15 bits, dst in the low 15.
// A commodity has one rule per switch and each switch has its own group
// table, so no two TE groups on a switch share an id, and a commodity
// keeps its id from one configuration to the next. The top bit keeps
// TE ids apart from the ids the ECMP app counts up from 0x0ec0000 on
// the same switches. A node id that does not fit in 15 bits is an
// error, never a wrapped id.
func (k commodityKey) groupID() (uint32, error) {
	if k.src >= 1<<15 || k.dst >= 1<<15 {
		return 0, fmt.Errorf("update: no group id for (%d, %d): node ids must be below 32768", k.src, k.dst)
	}
	return 1<<31 | uint32(k.src)<<15 | uint32(k.dst), nil
}

// linkLoadsByCommodity explodes an allocation into per-commodity link
// loads.
func linkLoadsByCommodity(a *te.Allocation) map[commodityKey]map[topo.LinkKey]float64 {
	out := make(map[commodityKey]map[topo.LinkKey]float64, len(a.Commodities))
	for _, c := range a.Commodities {
		key := commodityKey{c.Demand.Src, c.Demand.Dst}
		m := out[key]
		if m == nil {
			m = make(map[topo.LinkKey]float64)
			out[key] = m
		}
		for _, p := range c.Paths {
			for i := 0; i+1 < len(p.Path.Nodes); i++ {
				lk := canonicalKey(a, p.Path.Nodes[i], p.Path.Nodes[i+1])
				m[lk] += p.Rate
			}
		}
	}
	return out
}

// canonicalKey finds the LinkKey joining two nodes in the allocation's
// capacity map (paths do not carry port numbers).
func canonicalKey(a *te.Allocation, x, y topo.NodeID) topo.LinkKey {
	for k := range a.LinkCap {
		if (k.A == x && k.B == y) || (k.A == y && k.B == x) {
			return k
		}
	}
	// Unknown link (should not happen for well-formed allocations);
	// synthesize a stable key.
	if x < y {
		return topo.LinkKey{A: x, B: y}
	}
	return topo.LinkKey{A: y, B: x}
}

// Violation reports one overloaded link during a transition step.
type Violation struct {
	Step     int // transition step index (0 = old->first intermediate)
	Link     topo.LinkKey
	Load     float64
	Capacity float64
}

// StepViolations computes the worst-case transient overloads of the
// single asynchronous transition a -> b against full link capacities.
func StepViolations(a, b *te.Allocation, caps map[topo.LinkKey]float64) []Violation {
	la := linkLoadsByCommodity(a)
	lb := linkLoadsByCommodity(b)
	transient := make(map[topo.LinkKey]float64)
	keys := make(map[commodityKey]bool)
	for k := range la {
		keys[k] = true
	}
	for k := range lb {
		keys[k] = true
	}
	for k := range keys {
		links := make(map[topo.LinkKey]bool)
		for l := range la[k] {
			links[l] = true
		}
		for l := range lb[k] {
			links[l] = true
		}
		for l := range links {
			transient[l] += math.Max(la[k][l], lb[k][l])
		}
	}
	var out []Violation
	for l, load := range transient {
		if cap_, ok := caps[l]; ok && load > cap_*(1+1e-9) {
			out = append(out, Violation{Link: l, Load: load, Capacity: cap_})
		}
	}
	return out
}

// Interpolate builds the configuration (1-t)*old + t*new. Commodities
// are matched by (src,dst); a commodity present on only one side
// scales from or to zero.
func Interpolate(old, new_ *te.Allocation, t float64) *te.Allocation {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	type side struct {
		c  te.CommodityAlloc
		ok bool
	}
	oldBy := make(map[commodityKey]te.CommodityAlloc)
	for _, c := range old.Commodities {
		oldBy[commodityKey{c.Demand.Src, c.Demand.Dst}] = c
	}
	newBy := make(map[commodityKey]te.CommodityAlloc)
	var order []commodityKey
	for _, c := range new_.Commodities {
		k := commodityKey{c.Demand.Src, c.Demand.Dst}
		newBy[k] = c
		order = append(order, k)
	}
	for _, c := range old.Commodities {
		k := commodityKey{c.Demand.Src, c.Demand.Dst}
		if _, ok := newBy[k]; !ok {
			order = append(order, k)
		}
	}

	caps := new_.LinkCap
	if len(caps) == 0 {
		caps = old.LinkCap
	}
	out := &te.Allocation{
		LinkLoad: make(map[topo.LinkKey]float64),
		LinkCap:  caps,
	}
	for _, k := range order {
		oc, hasOld := oldBy[k]
		nc, hasNew := newBy[k]
		var merged te.CommodityAlloc
		switch {
		case hasNew:
			merged.Demand = nc.Demand
		default:
			merged.Demand = oc.Demand
		}
		// Sum scaled path rates; identical paths merge.
		pathRate := map[string]te.PathAlloc{}
		add := func(p te.PathAlloc, scale float64) {
			if p.Rate*scale <= 0 {
				return
			}
			id := pathID(p.Path)
			cur := pathRate[id]
			cur.Path = p.Path
			cur.Rate += p.Rate * scale
			pathRate[id] = cur
		}
		if hasOld {
			for _, p := range oc.Paths {
				add(p, 1-t)
			}
		}
		if hasNew {
			for _, p := range nc.Paths {
				add(p, t)
			}
		}
		for _, p := range pathRate {
			merged.Paths = append(merged.Paths, p)
			merged.Allocated += p.Rate
			for i := 0; i+1 < len(p.Path.Nodes); i++ {
				out.LinkLoad[canonicalKey(out, p.Path.Nodes[i], p.Path.Nodes[i+1])] += p.Rate
			}
		}
		out.Commodities = append(out.Commodities, merged)
	}
	return out
}

func pathID(p topo.Path) string {
	b := make([]byte, 0, len(p.Nodes)*8)
	for _, n := range p.Nodes {
		for s := 56; s >= 0; s -= 8 {
			b = append(b, byte(n>>uint(s)))
		}
	}
	return string(b)
}

// Plan is a validated transition: Steps[0] is the old state, the last
// is the target, and every adjacent pair is congestion-free under
// asynchronous application.
type Plan struct {
	Steps []*te.Allocation
}

// Intermediates returns the number of intermediate configurations.
func (p *Plan) Intermediates() int {
	if len(p.Steps) < 2 {
		return 0
	}
	return len(p.Steps) - 2
}

// Validate re-checks every step against caps, returning all violations
// (empty for a sound plan).
func (p *Plan) Validate(caps map[topo.LinkKey]float64) []Violation {
	var out []Violation
	for i := 0; i+1 < len(p.Steps); i++ {
		for _, v := range StepViolations(p.Steps[i], p.Steps[i+1], caps) {
			v.Step = i
			out = append(out, v)
		}
	}
	return out
}

// Planner searches for congestion-free transitions.
type Planner struct {
	// MaxIntermediates bounds the search (default 16).
	MaxIntermediates int
}

// Plan finds the smallest number of interpolated intermediate steps
// that makes old -> new congestion-free against full capacities. The
// SWAN bound guarantees success within ceil(1/s)-1 intermediates when
// both endpoint configurations respect scratch fraction s.
func (pl Planner) Plan(old, new_ *te.Allocation, caps map[topo.LinkKey]float64) (*Plan, error) {
	max := pl.MaxIntermediates
	if max <= 0 {
		max = 16
	}
	for k := 0; k <= max; k++ {
		steps := make([]*te.Allocation, 0, k+2)
		steps = append(steps, old)
		for i := 1; i <= k; i++ {
			steps = append(steps, Interpolate(old, new_, float64(i)/float64(k+1)))
		}
		steps = append(steps, new_)
		plan := &Plan{Steps: steps}
		if len(plan.Validate(caps)) == 0 {
			return plan, nil
		}
	}
	return nil, fmt.Errorf("update: no congestion-free plan within %d intermediates", max)
}

// Capacities extracts full (not headroom-reduced) capacities from a
// graph for validation.
func Capacities(g *topo.Graph) map[topo.LinkKey]float64 {
	out := make(map[topo.LinkKey]float64)
	for _, l := range g.Links() {
		if !l.Down {
			out[l.Key()] = l.Capacity
		}
	}
	return out
}
