package experiments

import (
	"fmt"

	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/workload"
)

// E3Config parameterizes the WAN utilization experiment.
type E3Config struct {
	Scales []float64 // demand scale multipliers over the base matrix
	KPaths int
	Seed   int64
}

func runE3(p Params) (*Table, any, error) {
	cfg := E3Config{Seed: p.Seed}
	if p.Quick {
		cfg.Scales = []float64{0.4, 0.8, 1.2, 2.0}
	}
	t, err := E3Utilization(cfg)
	return t, nil, err
}

// E3Utilization reproduces the B4/SWAN headline figure: demand on the
// 12-site WAN is swept from light to oversubscribed; at each point we
// compare centralized TE (k-path max-min) against shortest-path
// routing. Shape: both deliver everything when idle; as load grows the
// baseline strands capacity on the geographically cheap routes while
// TE keeps delivering (~1.3x more at the knee) and drives mean
// utilization toward 100%.
func E3Utilization(cfg E3Config) (*Table, error) {
	if len(cfg.Scales) == 0 {
		cfg.Scales = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0}
	}
	if cfg.KPaths <= 0 {
		cfg.KPaths = 4
	}
	g, _ := topo.WAN(1000)
	// Base matrix sized so scale 1.0 sits at the interesting knee.
	base := workload.Gravity(g, 10000, cfg.Seed+3)

	t := newTable("e3", "scale", "demand", "TE-deliv", "SP-deliv",
		"TE-frac", "SP-frac", "gain", "TE-meanU", "SP-meanU")
	t.Notes = []string{
		fmt.Sprintf("12-site WAN, 1000 Mbps links, gravity demands, k=%d paths", cfg.KPaths),
		"expected shape: gain ~1 at low load, rising to ~1.3x past the knee; TE meanU -> ~0.9",
	}
	for _, s := range cfg.Scales {
		m := base.Scale(s)
		alloc, err := te.Solve(g, m, te.Config{KPaths: cfg.KPaths})
		if err != nil {
			return nil, err
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
	return t, nil
}

func runE3a(p Params) (*Table, any, error) {
	var ks []int
	if p.Quick {
		ks = []int{1, 4}
	}
	t, err := E3aPathDiversity(ks, p.Seed)
	return t, nil, err
}

// E3aPathDiversity is the ablation over k: what path diversity buys.
// Shape: the worst-off commodity's satisfaction (the max-min
// objective) improves monotonically with k and flattens by k=4, while
// TOTAL delivered traffic can dip slightly — alternate paths are
// longer, so fairness spends more link-resource per delivered Mbps.
// That fairness/efficiency tension is exactly why B4 splits per
// priority class rather than maximizing raw throughput.
func E3aPathDiversity(ks []int, seed int64) (*Table, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8}
	}
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 12000, seed+3)
	sp := te.SolveShortestPath(g, m, 0)

	t := newTable("e3a", "k", "delivered", "min-satisfaction", "gain-vs-SP", "meanU")
	t.Notes = []string{
		"min-satisfaction = worst-off commodity's granted/demanded (the max-min objective)",
		"expected shape: min-satisfaction monotone in k, flattening by k=4; total may dip",
	}
	for _, k := range ks {
		alloc, err := te.Solve(g, m, te.Config{KPaths: k})
		if err != nil {
			return nil, err
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
	return t, nil
}
