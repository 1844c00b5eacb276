package experiments

import (
	"fmt"

	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/workload"
)

// E3Utilization reproduces the B4/SWAN headline figure: demand on the
// 12-site WAN is swept from light to oversubscribed; at each point we
// compare centralized TE (k-path max-min) against shortest-path
// routing. Shape: both deliver everything when idle; as load grows the
// baseline strands capacity on the geographically cheap routes while
// TE keeps delivering (~1.3x more at the knee) and drives mean
// utilization toward 100%.
func E3Utilization(p Params) (*Table, any, error) {
	const kPaths = 4
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0}
	if p.Quick {
		scales = []float64{0.2, 1.5}
	}
	g, _ := topo.WAN(1000)
	// Base matrix sized so scale 1.0 sits at the interesting knee.
	base := workload.Gravity(g, 10000, p.Seed+3)

	t := newTable("e3", "scale", "demand", "TE-deliv", "SP-deliv",
		"TE-frac", "SP-frac", "gain", "TE-meanU", "SP-meanU")
	t.Notes = []string{
		fmt.Sprintf("12-site WAN, 1000 Mbps links, gravity demands, k=%d paths", kPaths),
		"expected shape: gain ~1 at low load, rising to ~1.3x past the knee; TE meanU -> ~0.9",
	}
	for _, s := range scales {
		m := base.Scale(s)
		alloc, err := te.Solve(g, m, te.Config{KPaths: kPaths})
		if err != nil {
			return nil, nil, err
		}
		sp := te.SolveShortestPath(g, m, 0)
		gain := 1.0
		if sp.TotalAllocated() > 0 {
			gain = alloc.TotalAllocated() / sp.TotalAllocated()
		}
		t.AddRow(
			f2(s), f0(m.Total()),
			f0(alloc.TotalAllocated()), f0(sp.TotalAllocated()),
			f2(alloc.DeliveredFraction()), f2(sp.DeliveredFraction()),
			f2(gain), f2(alloc.MeanUtilization()), f2(sp.MeanUtilization()),
		)
	}
	return t, nil, nil
}

// E3aPathDiversity is the ablation over k: what path diversity buys.
// Shape: the worst-off commodity's satisfaction (the max-min
// objective) improves monotonically with k and flattens by k=4, while
// TOTAL delivered traffic can dip slightly — alternate paths are
// longer, so fairness spends more link-resource per delivered Mbps.
// That fairness/efficiency tension is exactly why B4 splits per
// priority class rather than maximizing raw throughput.
func E3aPathDiversity(p Params) (*Table, any, error) {
	ks := []int{1, 2, 4, 8}
	if p.Quick {
		ks = []int{1, 4}
	}
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 12000, p.Seed+3)
	sp := te.SolveShortestPath(g, m, 0)

	t := newTable("e3a", "k", "delivered", "min-satisfaction", "gain-vs-SP", "meanU")
	t.Notes = []string{
		"min-satisfaction = worst-off commodity's granted/demanded (the max-min objective)",
		"expected shape: min-satisfaction monotone in k, flattening by k=4; total may dip",
	}
	for _, k := range ks {
		alloc, err := te.Solve(g, m, te.Config{KPaths: k})
		if err != nil {
			return nil, nil, err
		}
		minSat := 1.0
		for _, c := range alloc.Commodities {
			if s := c.Satisfaction(); s < minSat {
				minSat = s
			}
		}
		t.AddRow(fmt.Sprintf("%d", k),
			f0(alloc.TotalAllocated()),
			f2(minSat),
			f2(alloc.TotalAllocated()/sp.TotalAllocated()),
			f2(alloc.MeanUtilization()))
	}
	return t, nil, nil
}
