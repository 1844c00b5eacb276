package repro

// testing.B front end of the synthetic evaluation suite (DESIGN.md
// E1-E6, plus the ablations the design calls out). cmd/zbench
// renders the same experiments as full tables; these benches make each
// one reproducible under `go test -bench`, on the fixtures
// internal/experiments and internal/cbench own.

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/cbench"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/zof"
)

// --- E1: reactive flow setup ------------------------------------------------

// BenchmarkE1FlowSetup measures one reactive flow-setup round trip:
// packet-in to the controller's learning app, response back — the unit
// of cbench throughput. Sub-benchmarks vary the pipelining window.
func BenchmarkE1FlowSetup(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			ctl, err := controller.New(controller.Config{EventQueue: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer ctl.Close()
			ctl.Use(apps.NewLearningSwitch())
			s, err := cbench.Dial(ctl.Addr(), 9001, 64, 9001)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			await := func() {
				if _, err := s.Await(); err != nil {
					b.Fatal(err)
				}
			}

			b.ResetTimer()
			inFlight := 0
			for i := 0; i < b.N; i++ {
				if err := s.Send(); err != nil {
					b.Fatal(err)
				}
				inFlight++
				if inFlight >= window {
					await()
					inFlight--
				}
			}
			for ; inFlight > 0; inFlight-- {
				await()
			}
		})
	}
}

// --- E2: lookup scaling ------------------------------------------------------

// benchLookup runs one experiments.LookupOp as a sub-benchmark.
func benchLookup(b *testing.B, name string, lookup func(i int)) {
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookup(i)
		}
	})
}

// BenchmarkE2Lookup sweeps structure x size; the experiment's figure is
// the ns/op of each sub-benchmark.
func BenchmarkE2Lookup(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		for _, op := range experiments.BuildLookupFixture(n, 1, int64(n)).Ops() {
			benchLookup(b, fmt.Sprintf("%s-%d", op.Name, n), op.Lookup)
		}
	}
}

// BenchmarkE2aMicroCache is the ablation: the authoritative table
// fronted by the microflow cache versus bare.
func BenchmarkE2aMicroCache(b *testing.B) {
	fx := experiments.BuildLookupFixture(10000, 1, 10000)
	benchLookup(b, "bare", fx.Ops()[0].Lookup) // the table alone
	benchLookup(b, "cached", fx.CachedOp().Lookup)
}

// --- E3: WAN TE --------------------------------------------------------------

// BenchmarkE3Utilization times one full TE solve on the WAN at the
// experiment's knee, reporting the delivered fraction and the gain
// over the shortest-path baseline as custom metrics.
func BenchmarkE3Utilization(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	var frac, gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := te.Solve(g, m, te.Config{KPaths: 4})
		if err != nil {
			b.Fatal(err)
		}
		sp := te.SolveShortestPath(g, m, 0)
		frac = alloc.DeliveredFraction()
		gain = alloc.TotalAllocated() / sp.TotalAllocated()
	}
	b.ReportMetric(frac, "delivered-frac")
	b.ReportMetric(gain, "gain-vs-sp")
}

// BenchmarkE3aKPaths is the path-diversity ablation.
func BenchmarkE3aKPaths(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				alloc, err := te.Solve(g, m, te.Config{KPaths: k})
				if err != nil {
					b.Fatal(err)
				}
				frac = alloc.DeliveredFraction()
			}
			b.ReportMetric(frac, "delivered-frac")
		})
	}
}

// --- E4: congestion-free updates ---------------------------------------------

// benchPlan times planning one congestion-free WAN transition at the
// given scratch headroom, reporting the intermediate-step count.
func benchPlan(b *testing.B, scratch float64, maxIntermediates int) {
	g, _ := topo.WAN(1000)
	caps := update.Capacities(g)
	old, target, err := experiments.WANTransition(g, 9000, scratch, 11, 12)
	if err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (update.Planner{MaxIntermediates: maxIntermediates}).Plan(old, target, caps)
		if err != nil {
			b.Fatal(err)
		}
		steps = plan.Intermediates()
	}
	b.ReportMetric(float64(steps), "intermediates")
}

// BenchmarkE4Update is the experiment's operating point: 10% scratch.
func BenchmarkE4Update(b *testing.B) { benchPlan(b, 0.10, 16) }

// BenchmarkE4aScratch is the headroom ablation: planning cost and step
// count at different scratch settings.
func BenchmarkE4aScratch(b *testing.B) {
	for _, s := range []float64{0.05, 0.20} {
		b.Run(fmt.Sprintf("scratch-%.2f", s), func(b *testing.B) { benchPlan(b, s, 32) })
	}
}

// --- E5: failure recovery ----------------------------------------------------

// BenchmarkE5Recovery times one link-failure recompile event over a
// fat-tree intent mesh (down + up per iteration so state is stable).
func BenchmarkE5Recovery(b *testing.B) {
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	mgr, _, err := experiments.IntentMesh(g, edges,
		func(map[topo.NodeID][]zof.Message) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	links := g.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := links[i%len(links)].Key()
		mgr.OnLinkDown(k)
		mgr.OnLinkUp(k)
	}
}

// --- E6: packet codec ----------------------------------------------------------

// BenchmarkE6Codec covers decode, decode+flowkey and serialize at the
// experiment's frame sizes; allocs/op is the headline (must be 0).
func BenchmarkE6Codec(b *testing.B) {
	for _, size := range []int{64, 1500} {
		for _, cb := range experiments.CodecBenches(size) {
			b.Run(fmt.Sprintf("%s-%dB", cb.Name, size), cb.Run)
		}
	}
}
