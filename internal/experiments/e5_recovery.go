package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/intent"
	"repro/internal/topo"
	"repro/internal/zof"
)

// E5Config parameterizes the failure-recovery experiment.
type E5Config struct {
	Failures int
	Seed     int64
}

// IntentMesh submits one intent per unordered pair of ends to a fresh
// manager over g and returns it with the id of the last intent (ids
// run 1..last).
func IntentMesh(g *topo.Graph, ends []topo.NodeID, inst intent.Installer) (*intent.Manager, intent.ID, error) {
	mgr := intent.NewManager(g, inst)
	id := intent.ID(0)
	for i := 0; i < len(ends); i++ {
		for j := i + 1; j < len(ends); j++ {
			id++
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEthSrc | zof.WEthDst
			m.EthSrc[4], m.EthSrc[5] = byte(i), byte(j)
			m.EthDst[4], m.EthDst[5] = byte(j), byte(i)
			if err := mgr.Submit(intent.Intent{
				ID:    id,
				Src:   intent.Endpoint{Node: ends[i], Port: 100},
				Dst:   intent.Endpoint{Node: ends[j], Port: 100},
				Match: m, Priority: 10,
			}); err != nil {
				return nil, 0, fmt.Errorf("intent %d: %w", id, err)
			}
		}
	}
	return mgr, id, nil
}

func runE5(p Params) (*Table, any, error) {
	cfg := E5Config{Seed: p.Seed}
	if p.Quick {
		cfg.Failures = 3
	}
	t, err := E5Recovery(cfg)
	return t, nil, err
}

// E5Recovery measures failure recovery across topologies: submit an
// all-pairs intent mesh, fail random links one at a time, record the
// intent framework's recompile latency, rule churn, and path stretch;
// compare against the L2 answer (recompute the spanning tree and flush
// every learned flow). Shape: intent recompiles complete in well under
// a millisecond per event with surgical rule churn and stretch near 1,
// while the spanning-tree baseline flushes the whole network.
func E5Recovery(cfg E5Config) (*Table, error) {
	if cfg.Failures <= 0 {
		cfg.Failures = 10
	}
	t := newTable("e5", "topology", "intents", "failures", "reroute-p50", "reroute-p99",
		"rules-touched/fail", "mean-stretch", "lost", "stp-recompute", "stp-flush")
	t.Notes = []string{
		"stp-flush counts flows invalidated by full L2 reconvergence (all of them)",
		"expected shape: sub-ms recompiles, stretch ~1, churn ≪ full flush",
	}
	type topoCase struct {
		name  string
		graph *topo.Graph
		ends  []topo.NodeID
	}
	ft, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		return nil, err
	}
	wan, sites := topo.WAN(1000)
	var siteIDs []topo.NodeID
	for _, s := range sites {
		siteIDs = append(siteIDs, s.ID)
	}
	for _, tc := range []topoCase{
		{"fat-tree-k4", ft, edges},
		{"wan-12", wan, siteIDs},
	} {
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		// Rule ops are counted, not installed: the measurement is pure
		// control-plane recompile cost.
		ops := 0
		mgr, id, err := IntentMesh(tc.graph, tc.ends, intent.InstallerFunc(func(o []intent.RuleOp) error {
			ops += len(o)
			return nil
		}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		installedOps := ops
		ops = 0

		links := tc.graph.Links()
		lost := 0
		for f := 0; f < cfg.Failures; f++ {
			k := links[rng.Intn(len(links))].Key()
			_, l, _ := mgr.OnLinkDown(k)
			lost += l
			mgr.OnLinkUp(k) // restore so failures stay independent
		}
		// Mean stretch over surviving intents (all restored now).
		var stretchSum float64
		var stretchN int
		for ii := intent.ID(1); ii <= id; ii++ {
			if s, ok := mgr.Stretch(ii); ok {
				stretchSum += s
				stretchN++
			}
		}
		meanStretch := 1.0
		if stretchN > 0 {
			meanStretch = stretchSum / float64(stretchN)
		}

		// Spanning-tree baseline: recompute the BFS tree (timed) and
		// flush everything a learning network would have installed —
		// approximate as the rules the intents occupy.
		stpStart := time.Now()
		for i := 0; i < 100; i++ {
			tc.graph.SpanningTree(tc.ends[0])
		}
		stpPer := time.Since(stpStart) / 100

		t.AddRow(tc.name,
			fmt.Sprintf("%d", int(id)),
			fmt.Sprintf("%d", cfg.Failures),
			mgr.Recompiles.Quantile(0.5).String(),
			mgr.Recompiles.Quantile(0.99).String(),
			fmt.Sprintf("%d", ops/(2*cfg.Failures)), // ops per down+up pair
			f2(meanStretch),
			fmt.Sprintf("%d", lost),
			stpPer.String(),
			fmt.Sprintf("%d", installedOps), // full flush = everything reinstalled
		)
	}
	return t, nil
}
