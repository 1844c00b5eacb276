package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/flowtable"
	"repro/internal/packet"
	"repro/internal/zof"
)

// LookupFixture holds one populated flow table, the exact-match map it
// is read against and the probe frames. The E2 experiment and the
// repo's BenchmarkE2* share it.
type LookupFixture struct {
	Table  *flowtable.Table
	Exact  map[packet.FlowKey]int
	Cached *flowtable.MicroCache

	Frames []*packet.Frame
	Keys   []packet.FlowKey
}

// BuildLookupFixture installs n destination-prefix rules spread evenly
// over shapes mask shapes — /24, then /23, /22, … each its own hash
// table in the index, so a lookup costs up to shapes probes — and n
// exact 5-tuples in the map; probes are frames that hit.
func BuildLookupFixture(n, shapes int, seed int64) *LookupFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &LookupFixture{
		Table:  flowtable.NewTable(0),
		Exact:  make(map[packet.FlowKey]int, n),
		Cached: flowtable.NewMicroCache(1 << 17),
	}
	now := time.Unix(0, 0)
	prefixes := make([]uint32, n)
	for i := 0; i < n; i++ {
		plen := uint8(24 - i%shapes)
		p := rng.Uint32() &^ (1<<(32-plen) - 1)
		prefixes[i] = p
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEtherType
		m.EtherType = packet.EtherTypeIPv4
		m.IPDst = packet.IPv4FromUint32(p)
		m.DstPrefix = plen
		e := &flowtable.Entry{Match: m, Priority: uint16(i % 8),
			Actions: []zof.Action{zof.Output(1)}}
		_ = fx.Table.Add(e, false, now) // unbounded, no overlap check: cannot fail
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
		var key packet.FlowKey
		key.Extract(&f)
		fx.Keys = append(fx.Keys, key)
		fx.Exact[key] = i
	}
	return fx
}

// LookupOp is one structure's lookup of probe i (probes wrap).
type LookupOp struct {
	Name   string // sub-benchmark prefix under BenchmarkE2Lookup
	Lookup func(i int)
}

// Ops returns the per-structure lookups E2Lookup rates and
// BenchmarkE2Lookup times: the table, then the exact map.
func (fx *LookupFixture) Ops() []LookupOp {
	now := time.Unix(0, 0)
	nf := len(fx.Frames)
	return []LookupOp{
		{"table", func(i int) { fx.Table.Lookup(fx.Frames[i%nf], 1, 64, now) }},
		{"exact", func(i int) { _ = fx.Exact[fx.Keys[i%nf]] }},
	}
}

// CachedOp is the authoritative table fronted by the microflow cache:
// every probe's microflow is warmed first, so the op measures the steady
// state (one authoritative lookup per flow, then cache hits).
func (fx *LookupFixture) CachedOp() LookupOp {
	now := time.Unix(0, 0)
	gen := fx.Table.Gen()
	for _, f := range fx.Frames {
		fx.Cached.Put(flowtable.MakeCacheKey(f, 1), gen, fx.Table.Lookup(f, 1, 64, now))
	}
	return LookupOp{"cached", func(i int) {
		f := fx.Frames[i%len(fx.Frames)]
		key := flowtable.MakeCacheKey(f, 1)
		if _, ok := fx.Cached.Get(key, gen); !ok {
			fx.Cached.Put(key, gen, fx.Table.Lookup(f, 1, 64, now))
		}
	}}
}

// measureRate runs fn repeatedly for roughly d and returns ops/sec.
func measureRate(d time.Duration, fn func(i int)) float64 {
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

// e2Shapes is the many-shapes column: lookup cost in the index is
// O(mask shapes), and this is the factor the one-shape column hides.
const e2Shapes = 8

// E2Lookup sweeps table size × mask shapes. Shape: no column decays
// with table size the way a scan does (a colder cache is all that 1000×
// the rules cost); the table pays per shape probed, so the 8-shape
// column sits below the 1-shape one; the exact map bounds what a single
// hash probe can do, and the microflow cache — key, hash, lock, one
// 4-way set — is flat in table size and costs less than one shape's
// probe once the table has outgrown the CPU's caches.
func E2Lookup(p Params) (*Table, any, error) {
	sizes, measure := []int{100, 1000, 10000, 100000}, 200*time.Millisecond
	if p.Quick {
		sizes, measure = []int{100, 5000}, 50*time.Millisecond
	}
	t := newTable("e2", "entries", "table(1 shape)", fmt.Sprintf("table(%d shapes)", e2Shapes), "exact-map", "micro-cache")
	t.Notes = []string{
		"probes hit installed dst-prefix rules (/24; /24../17 in the 8-shape column); exact map keyed by 5-tuple",
		"expected shape: exact ≫ table(1) > table(8); no column decays ~1/N; the micro-cache is flat in table size and passes table(1) from about 1,000 rules",
	}
	for _, n := range sizes {
		fx := BuildLookupFixture(n, 1, int64(n))
		one, many := fx.Ops(), BuildLookupFixture(n, e2Shapes, int64(n)).Ops()
		row := []string{fmt.Sprintf("%d", n)}
		for _, op := range []LookupOp{one[0], many[0], one[1], fx.CachedOp()} {
			row = append(row, f0(measureRate(measure, op.Lookup)))
		}
		t.AddRow(row...)
	}
	return t, nil, nil
}
