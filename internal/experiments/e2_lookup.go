package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/flowtable"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E2Config parameterizes the lookup-scaling experiment.
type E2Config struct {
	Sizes   []int         // table sizes to sweep
	Measure time.Duration // wall time per point (default 200ms)
}

// LookupFixture holds one populated structure set plus probe frames.
// The E2 experiment and the repo's BenchmarkE2* share it.
type LookupFixture struct {
	Linear *flowtable.Table
	Tuple  *flowtable.TupleSpace
	Exact  map[packet.FlowKey]int
	LPM    *flowtable.LPM[int]
	Cached *flowtable.MicroCache

	Frames []*packet.Frame
	Keys   []packet.FlowKey
	Addrs  []uint32
}

// BuildLookupFixture installs n rules into every structure. Rules are
// /24 destination prefixes (LPM/linear/tuple) and exact 5-tuples
// (exact map); probes are frames that hit.
func BuildLookupFixture(n int, seed int64) *LookupFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &LookupFixture{
		Linear: flowtable.NewTable(0),
		Tuple:  flowtable.NewTupleSpace(),
		Exact:  make(map[packet.FlowKey]int, n),
		LPM:    flowtable.NewLPM[int](),
		Cached: flowtable.NewMicroCache(1 << 17),
	}
	now := time.Unix(0, 0)
	prefixes := make([]uint32, n)
	for i := 0; i < n; i++ {
		p := rng.Uint32() &^ 0xff // /24
		prefixes[i] = p
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEtherType
		m.EtherType = packet.EtherTypeIPv4
		m.IPDst = packet.IPv4FromUint32(p)
		m.DstPrefix = 24
		e := &flowtable.Entry{Match: m, Priority: uint16(i % 8),
			Actions: []zof.Action{zof.Output(1)}}
		_ = fx.Linear.Add(e, false, now)
		fx.Tuple.Insert(e)
		fx.LPM.Insert(p, 24, i)
	}
	// Probe set: 1024 frames landing inside random installed prefixes.
	for i := 0; i < 1024; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		dst := packet.IPv4FromUint32(p | uint32(rng.Intn(256)))
		src := packet.IPv4FromUint32(rng.Uint32())
		var f packet.Frame
		if packet.Decode(udpFrame(0, src, dst, uint16(rng.Intn(65536))), &f) != nil {
			continue
		}
		fx.Frames = append(fx.Frames, &f)
		key := packet.ExtractFlowKey(&f)
		fx.Keys = append(fx.Keys, key)
		fx.Exact[key] = i
		fx.Addrs = append(fx.Addrs, dst.Uint32())
	}
	return fx
}

// LookupOp is one structure's lookup of probe i (probes wrap).
type LookupOp struct {
	Name   string // sub-benchmark prefix under BenchmarkE2Lookup
	Lookup func(i int)
}

// Ops returns the per-structure lookups E2Lookup rates and
// BenchmarkE2Lookup times, in table-column order.
func (fx *LookupFixture) Ops() []LookupOp {
	now := time.Unix(0, 0)
	nf := len(fx.Frames)
	return []LookupOp{
		{"linear", func(i int) { fx.Linear.Lookup(fx.Frames[i%nf], 1, 64, now) }},
		{"tuple", func(i int) { fx.Tuple.Lookup(fx.Frames[i%nf], 1) }},
		{"lpm", func(i int) { fx.LPM.Lookup(fx.Addrs[i%nf]) }},
		{"exact", func(i int) { _ = fx.Exact[fx.Keys[i%nf]] }},
	}
}

// CachedOp is the authoritative table fronted by the microflow cache:
// every probe's microflow is warmed first, so the op measures the steady
// state (one authoritative lookup per flow, then cache hits).
func (fx *LookupFixture) CachedOp() LookupOp {
	now := time.Unix(0, 0)
	gen := fx.Linear.Gen()
	for _, f := range fx.Frames {
		fx.Cached.Put(flowtable.MakeCacheKey(f, 1), gen, fx.Linear.Lookup(f, 1, 64, now))
	}
	return LookupOp{"cached", func(i int) {
		f := fx.Frames[i%len(fx.Frames)]
		key := flowtable.MakeCacheKey(f, 1)
		if _, ok := fx.Cached.Get(key, gen); !ok {
			fx.Cached.Put(key, gen, fx.Linear.Lookup(f, 1, 64, now))
		}
	}}
}

// measureRate runs fn repeatedly for roughly d and returns ops/sec.
func measureRate(d time.Duration, fn func(i int)) float64 {
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	// Calibrate with growing batches so the clock is read rarely.
	ops := 0
	start := time.Now()
	batch := 256
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			fn(ops + i)
		}
		ops += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return float64(ops) / time.Since(start).Seconds()
}

func runE2(p Params) (*Table, any, error) {
	cfg := E2Config{}
	if p.Quick {
		cfg.Sizes = []int{100, 1000, 10000}
		cfg.Measure = 50 * time.Millisecond
	}
	return E2Lookup(cfg), nil, nil
}

// E2Lookup sweeps table sizes for every structure. Shape: exact-map and
// LPM rates are flat-ish in table size; tuple space pays per-shape
// probes; the linear scan decays as ~1/N.
func E2Lookup(cfg E2Config) *Table {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{100, 1000, 10000, 100000}
	}
	t := newTable("e2", "entries", "linear", "tuple-space", "lpm-trie", "exact-map", "micro-cache")
	t.Notes = []string{
		"probes hit installed /24 dst rules; exact map keyed by 5-tuple",
		"expected shape: exact ≥ cache ≥ lpm ≥ tuple ≫ linear; linear decays ~1/N",
	}
	for _, n := range cfg.Sizes {
		fx := BuildLookupFixture(n, int64(n))
		row := []string{fmt.Sprintf("%d", n)}
		for _, op := range append(fx.Ops(), fx.CachedOp()) {
			row = append(row, f0(measureRate(cfg.Measure, op.Lookup)))
		}
		t.AddRow(row...)
	}
	return t
}
