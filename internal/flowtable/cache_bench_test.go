package flowtable

import (
	"fmt"
	"testing"
)

// cacheBenchKeys builds n distinct warmed microflow keys and their
// precomputed hashes against cache c at generation gen.
func cacheBenchKeys(c *MicroCache, n int, gen uint64) ([]CacheKey, []uint64) {
	keys := make([]CacheKey, n)
	hashes := make([]uint64, n)
	for i := range keys {
		keys[i] = CacheKey{InPort: 1}
		keys[i].EthSrc[4] = byte(i >> 8)
		keys[i].EthSrc[5] = byte(i)
		hashes[i] = keys[i].Hash()
		c.Put(keys[i], gen, &Entry{})
	}
	return keys, hashes
}

// BenchmarkCacheLookupBatch proves the burst path's amortization claim:
// every op resolves a 32-frame burst. The per-frame discipline pays one
// hash, one lock and one set visit per frame (32 Gets); the batched
// discipline pays the lock once and the rest once per distinct flow in
// the burst — grouping has already collapsed the 32 frames to nflows
// keys with precomputed hashes, exactly what runBurst hands to
// LookupBatch. Both sides must report 0 allocs/op.
func BenchmarkCacheLookupBatch(b *testing.B) {
	const burst = 32
	const gen = 7
	for _, nflows := range []int{1, 4, 32} {
		c := NewMicroCache(0)
		keys, hashes := cacheBenchKeys(c, nflows, gen)
		b.Run(fmt.Sprintf("perframe-flows%d", nflows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for f := 0; f < burst; f++ {
					c.Get(keys[f%nflows], gen)
				}
			}
		})
		b.Run(fmt.Sprintf("batched-flows%d", nflows), func(b *testing.B) {
			entries := make([]*Entry, nflows)
			cached := make([]bool, nflows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.LookupBatch(gen, keys, hashes, entries, cached)
			}
		})
	}
}
