package flowtable

import (
	"math/rand"
	"sync"
	"testing"
)

// cacheKeys is the microflow population the cache checker draws from,
// with the hash each key is always presented under: the key of all
// zeroes (an empty way holds it too); keys differing only in InPort,
// only in one MAC byte or only in a flow field; from 192 on, 32 keys
// found by search to agree in the low 12 bits of their hash — one set
// of any array up to 4,096 sets, eight times what it has ways — and 32
// more presented under that set's index and one of four top-bit
// patterns, eight keys to a forged hash, so that only the key compare
// tells them apart.
var cacheKeys = sync.OnceValues(func() ([]CacheKey, []uint64) {
	base := CacheKey{InPort: 1}
	base.Flow.SrcPort, base.EthSrc, base.EthDst = 999, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}
	keys := []CacheKey{{}}
	for i := 1; len(keys) < 192; i++ {
		port, mac, flow := base, base, base
		port.InPort = uint32(1 + i)
		mac.EthSrc[i%6] ^= byte(1 + i)
		flow.Flow.SrcPort = uint16(i)
		keys = append(keys, port, mac, flow)
	}
	keys = keys[:192]
	set := base.Hash() & 0xfff
	for i := 0; len(keys) < 224; i++ {
		k := base
		k.Flow.DstPort, k.Flow.VLAN = uint16(i), uint16(i>>16)
		if k.Hash()&0xfff == set {
			keys = append(keys, k)
		}
	}
	hashes := make([]uint64, 256)
	for i := range keys {
		hashes[i] = keys[i].Hash()
	}
	for i := 224; i < 256; i++ {
		k := base
		k.Flow.Proto = uint8(i)
		keys, hashes[i] = append(keys, k), set|uint64(i%4)<<62
	}
	return keys, hashes
})

// cacheCoverage says what a set of schedules exercised.
type cacheCoverage struct {
	lookups, hits, nilHits, genZeroHits, forgotten, staleMisses, maxLen int
}

// checkCacheSchedule runs the schedule data encodes against one cache
// and a map oracle holding the last Put per key. data[0] picks the
// bound; three bytes make an operation: a kind, a key index and an
// argument. The cache may forget — bounded, four ways to a set, ways
// reused across generations — but it may never lie: an answer given
// with ok == true is the oracle's entry, put at the generation asked
// about. Its counters must add up and its size stay inside the bound.
func checkCacheSchedule(t testing.TB, data []byte, cov *cacheCoverage) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	max := []int{4, 32, 1024, 0}[int(data[0])%4]
	bound := max
	if max == 0 {
		bound = 65536
	}
	type put struct {
		gen   uint64
		entry *Entry
	}
	keys, hashes := cacheKeys()
	c, oracle := NewMicroCache(max), map[CacheKey]put{}
	// get is Get, or for a key under a forged hash a batch of one.
	get := func(ki int, at uint64) (*Entry, bool) {
		if ki < 224 {
			return c.Get(keys[ki], at)
		}
		var e [1]*Entry
		var ok [1]bool
		c.LookupBatch(at, keys[ki:ki+1], hashes[ki:ki+1], e[:], ok[:])
		return e[0], ok[0]
	}
	entries := []*Entry{nil, {Priority: 1}, {Priority: 2}, {Priority: 3}}
	var gen, lookups uint64
	check := func(op int, k CacheKey, at uint64, got *Entry, ok bool) {
		t.Helper()
		lookups++
		want, known := oracle[k]
		current := known && want.gen == at
		switch {
		case ok && !current:
			t.Fatalf("op %d: key %+v answered at generation %d, last put %+v (known %v)", op, k, at, want, known)
		case ok && got != want.entry:
			t.Fatalf("op %d: key %+v at generation %d = %p, oracle %p", op, k, at, got, want.entry)
		case !ok && got != nil:
			t.Fatalf("op %d: a miss carried entry %p", op, got)
		case ok:
			cov.hits++
			if got == nil {
				cov.nilHits++
			}
			if at == 0 {
				cov.genZeroHits++
			}
		case current:
			cov.forgotten++
		case known:
			cov.staleMisses++
		}
	}
	for op, rec := 0, data[1:]; len(rec) >= 3; op, rec = op+1, rec[3:] {
		ki, arg := int(rec[1]), int(rec[2])
		if rec[0]&0x40 != 0 {
			ki = 192 + ki%64 // a key of the shared set
		}
		k := keys[ki]
		switch kind := rec[0] % 16; {
		case kind < 6:
			oracle[k] = put{gen, entries[arg%len(entries)]}
			if ki < 224 && arg&4 == 0 {
				c.Put(k, gen, oracle[k].entry)
			} else {
				c.PutHashed(k, hashes[ki], gen, oracle[k].entry)
			}
		case kind < 10:
			e, ok := get(ki, gen)
			check(op, k, gen, e, ok)
		case kind < 13: // a batch of distinct keys, hashes precomputed
			n := 1 + arg%32
			bk, bh := make([]CacheKey, n), make([]uint64, n)
			for i := range bk {
				bk[i], bh[i] = keys[(ki+i)%len(keys)], hashes[(ki+i)%len(keys)]
			}
			be, bc := make([]*Entry, n), make([]bool, n)
			c.LookupBatch(gen, bk, bh, be, bc)
			for i := range bk {
				check(op, bk[i], gen, be[i], bc[i])
			}
		case kind == 13: // a FlowMod
			gen++
		case kind == 14 && gen > 0: // a caller that read the generation before the last FlowMod
			if arg&1 == 0 {
				e, ok := get(ki, gen-1)
				check(op, k, gen-1, e, ok)
			} else {
				oracle[k] = put{gen - 1, entries[arg%len(entries)]}
				c.PutHashed(k, hashes[ki], gen-1, oracle[k].entry)
			}
		}
		if n := c.Len(); n > bound || n > len(oracle) {
			t.Fatalf("op %d: Len = %d with bound %d and %d keys ever put", op, n, bound, len(oracle))
		} else if n > cov.maxLen {
			cov.maxLen = n
		}
		if h, m := c.Hits(), c.Misses(); h+m != lookups {
			t.Fatalf("op %d: %d hits + %d misses, %d lookups", op, h, m, lookups)
		}
	}
	cov.lookups += int(lookups)
}

// TestMicroCacheMatchesOracle drives the checker with seeded schedules
// at every bound, a third of them leaning on the keys that share a set.
func TestMicroCacheMatchesOracle(t *testing.T) {
	var cov cacheCoverage
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 1+3*(200+rng.Intn(3000)))
		rng.Read(data)
		data[0] = byte(seed)
		for i := 1; i < len(data); i += 3 {
			if data[i] &^= 0x40; seed%3 == 0 && rng.Intn(4) > 0 {
				data[i] |= 0x40
			}
			if data[i]%16 >= 13 && rng.Intn(32) > 0 {
				data[i] -= 13 // FlowMods are far rarer than lookups
			}
		}
		checkCacheSchedule(t, data, &cov)
	}
	t.Logf("%+v", cov)
	if cov.hits < cov.lookups/8 || cov.nilHits < 1000 || cov.genZeroHits < 1000 || cov.forgotten < 1000 ||
		cov.staleMisses < 1000 || cov.maxLen < 150 {
		t.Fatalf("schedules too sparse to test the cache: %+v", cov)
	}
}

// FuzzMicroCache drives the same checker from bytes. The corpus under
// testdata/fuzz fills one set five keys deep at generation 0 behind a
// bound of four, walks a batch across a FlowMod, and looks up three
// keys put under one forged hash.
func FuzzMicroCache(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkCacheSchedule(t, data, new(cacheCoverage)) })
}
