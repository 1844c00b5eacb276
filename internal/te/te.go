// Package te implements centralized wide-area traffic engineering in
// the style the SIGCOMM'13 session around the keynote described (B4,
// SWAN): commodities are spread across k precomputed paths with
// quantized splits, rates are assigned max-min fairly by progressive
// filling, and the result is compared against shortest-path routing
// ("current practice") that leaves capacity stranded.
package te

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topo"
	"repro/internal/workload"
)

// PathAlloc is the rate a commodity sends down one path.
type PathAlloc struct {
	Path topo.Path
	Rate float64
}

// CommodityAlloc is the engineered state of one demand.
type CommodityAlloc struct {
	Demand    workload.Demand
	Allocated float64 // total granted rate, <= Demand.Rate
	Paths     []PathAlloc
}

// Satisfaction returns allocated/demanded (1 if demand was zero).
func (c CommodityAlloc) Satisfaction() float64 {
	if c.Demand.Rate <= 0 {
		return 1
	}
	return c.Allocated / c.Demand.Rate
}

// Allocation is a complete engineered network state.
type Allocation struct {
	Commodities []CommodityAlloc
	LinkLoad    map[topo.LinkKey]float64
	LinkCap     map[topo.LinkKey]float64
}

// TotalAllocated sums granted rate.
func (a *Allocation) TotalAllocated() float64 {
	var t float64
	for _, c := range a.Commodities {
		t += c.Allocated
	}
	return t
}

// TotalDemand sums requested rate.
func (a *Allocation) TotalDemand() float64 {
	var t float64
	for _, c := range a.Commodities {
		t += c.Demand.Rate
	}
	return t
}

// DeliveredFraction is TotalAllocated/TotalDemand.
func (a *Allocation) DeliveredFraction() float64 {
	d := a.TotalDemand()
	if d <= 0 {
		return 1
	}
	return a.TotalAllocated() / d
}

// MaxUtilization returns the highest link load/capacity ratio.
func (a *Allocation) MaxUtilization() float64 {
	var u float64
	for k, load := range a.LinkLoad {
		if cap_ := a.LinkCap[k]; cap_ > 0 {
			if r := load / cap_; r > u {
				u = r
			}
		}
	}
	return u
}

// MeanUtilization averages load/capacity over all links.
func (a *Allocation) MeanUtilization() float64 {
	if len(a.LinkCap) == 0 {
		return 0
	}
	var sum float64
	for k, cap_ := range a.LinkCap {
		if cap_ > 0 {
			sum += a.LinkLoad[k] / cap_
		}
	}
	return sum / float64(len(a.LinkCap))
}

// quantum is the progressive-filling step as a fraction of the largest
// demand: smaller is fairer but slower.
const quantum = 0.01

// Config tunes the TE solver.
type Config struct {
	// KPaths is how many shortest paths each commodity may split over.
	KPaths int
	// Headroom keeps every link below (1-Headroom)*capacity, the
	// scratch SWAN leaves for congestion-free updates.
	Headroom float64
}

// Solve computes a max-min fair multipath allocation for the demands
// on g via progressive filling: repeatedly grant one quantum to the
// currently least-satisfied unfrozen commodity, placing it on that
// commodity's least-loaded usable path; a commodity freezes when its
// demand is met or none of its paths has residual capacity.
func Solve(g *topo.Graph, demands workload.Matrix, cfg Config) (*Allocation, error) {
	if cfg.KPaths <= 0 {
		cfg.KPaths = 4
	}
	if cfg.Headroom < 0 || cfg.Headroom >= 1 {
		return nil, fmt.Errorf("te: headroom %v out of range [0,1)", cfg.Headroom)
	}

	cap_ := make(map[topo.LinkKey]float64)
	load := make(map[topo.LinkKey]float64)
	for _, l := range g.Links() {
		if !l.Down {
			cap_[l.Key()] = l.Capacity * (1 - cfg.Headroom)
		}
	}

	type state struct {
		alloc     CommodityAlloc
		pathLinks [][]topo.LinkKey
		frozen    bool
	}
	states := make([]*state, 0, len(demands))
	var maxDemand float64
	for _, d := range demands {
		if d.Rate > maxDemand {
			maxDemand = d.Rate
		}
		st := &state{alloc: CommodityAlloc{Demand: d}}
		for _, p := range g.KShortestPaths(d.Src, d.Dst, cfg.KPaths) {
			links, ok := g.PathLinks(p)
			if !ok {
				continue
			}
			keys := make([]topo.LinkKey, len(links))
			for i, l := range links {
				keys[i] = l.Key()
			}
			st.alloc.Paths = append(st.alloc.Paths, PathAlloc{Path: p})
			st.pathLinks = append(st.pathLinks, keys)
		}
		if len(st.alloc.Paths) == 0 {
			st.frozen = true // unroutable
		}
		states = append(states, st)
	}
	if maxDemand <= 0 {
		return &Allocation{LinkLoad: load, LinkCap: cap_}, nil
	}
	step := maxDemand * quantum

	// residual returns the spare capacity of path i of st.
	residual := func(st *state, i int) float64 {
		r := math.Inf(1)
		for _, k := range st.pathLinks[i] {
			if rem := cap_[k] - load[k]; rem < r {
				r = rem
			}
		}
		return r
	}

	for {
		// Least-satisfied unfrozen commodity (max-min order). Ties
		// break by index for determinism.
		var pick *state
		for _, st := range states {
			if st.frozen {
				continue
			}
			if pick == nil || st.alloc.Satisfaction() < pick.alloc.Satisfaction() {
				pick = st
			}
		}
		if pick == nil {
			break
		}
		want := math.Min(step, pick.alloc.Demand.Rate-pick.alloc.Allocated)
		if want <= 1e-12 {
			pick.frozen = true
			continue
		}
		// Place on the path with most residual capacity (spreads load;
		// B4 prefers cheaper paths first, but max-residual converges to
		// the same fairness with better balance on equal-cost fabrics).
		best, bestR := -1, 0.0
		for i := range pick.alloc.Paths {
			if r := residual(pick, i); r > bestR {
				best, bestR = i, r
			}
		}
		if best < 0 || bestR <= 1e-12 {
			pick.frozen = true
			continue
		}
		grant := math.Min(want, bestR)
		pick.alloc.Paths[best].Rate += grant
		pick.alloc.Allocated += grant
		for _, k := range pick.pathLinks[best] {
			load[k] += grant
		}
	}

	out := &Allocation{LinkLoad: load, LinkCap: cap_}
	for _, st := range states {
		// Drop zero-rate paths for a clean report.
		kept := st.alloc.Paths[:0]
		for _, p := range st.alloc.Paths {
			if p.Rate > 0 {
				kept = append(kept, p)
			}
		}
		st.alloc.Paths = kept
		out.Commodities = append(out.Commodities, st.alloc)
	}
	return out, nil
}

// MaxMinViolation quantifies how far an allocation is from max-min
// fairness: the largest satisfaction gap (a-b) over pairs where
// commodity a could donate a quantum to a less-satisfied commodity b
// sharing a saturated link. Zero-ish values indicate fairness; the
// property test asserts a small bound.
func (a *Allocation) MaxMinViolation() float64 {
	// A cheap necessary condition: every unsatisfied commodity must
	// have all its used paths touching a saturated link. We measure the
	// worst headroom an unsatisfied commodity still had available.
	worst := 0.0
	for _, c := range a.Commodities {
		if c.Satisfaction() >= 0.999 || len(c.Paths) == 0 {
			continue
		}
		// Find the most-available path of this commodity.
		bestResidual := math.Inf(1)
		for _, p := range c.Paths {
			r := a.pathResidual(p.Path)
			if r < bestResidual {
				bestResidual = r
			}
		}
		if bestResidual > worst && !math.IsInf(bestResidual, 1) {
			worst = bestResidual
		}
	}
	return worst
}

func (a *Allocation) pathResidual(p topo.Path) float64 {
	r := math.Inf(1)
	for i := 0; i+1 < len(p.Nodes); i++ {
		// Approximate: use any link key joining consecutive nodes.
		for k, cap_ := range a.LinkCap {
			if (k.A == p.Nodes[i] && k.B == p.Nodes[i+1]) ||
				(k.B == p.Nodes[i] && k.A == p.Nodes[i+1]) {
				if rem := cap_ - a.LinkLoad[k]; rem < r {
					r = rem
				}
			}
		}
	}
	return r
}

// QuantizeSplits converts a commodity's path rates into integer weights
// summing to denom (>=1), largest-remainder method — the form a select
// group's bucket weights take.
func QuantizeSplits(c CommodityAlloc, denom int) []int {
	if denom < 1 {
		denom = 1
	}
	n := len(c.Paths)
	if n == 0 || c.Allocated <= 0 {
		return nil
	}
	weights := make([]int, n)
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	total := 0
	for i, p := range c.Paths {
		exact := p.Rate / c.Allocated * float64(denom)
		w := int(math.Floor(exact))
		weights[i] = w
		total += w
		rems = append(rems, rem{i, exact - float64(w)})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; total < denom && i < len(rems); i++ {
		weights[rems[i].idx]++
		total++
	}
	// Guarantee at least the largest path gets weight when denom is
	// tiny relative to n.
	if total == 0 {
		weights[0] = denom
	}
	return weights
}
