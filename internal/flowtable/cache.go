package flowtable

import (
	"sync"

	"repro/internal/packet"
)

// CacheKey identifies a microflow: every match field the table can test
// is a function of these values, so all frames sharing a CacheKey match
// the same table entry.
type CacheKey struct {
	Flow   packet.FlowKey
	InPort uint32
	EthSrc packet.MAC
	EthDst packet.MAC
}

// MakeCacheKey derives the microflow key of a decoded frame. It inlines,
// and the flow key is cut in place, so the caller's slot is written once.
func MakeCacheKey(f *packet.Frame, inPort uint32) (k CacheKey) {
	k.Flow.Extract(f)
	k.InPort, k.EthSrc, k.EthDst = inPort, f.Eth.Src, f.Eth.Dst
	return k
}

// Hash extends the flow key's hash with the L2 fields, so flows
// differing only in L2 addressing or ingress land on distinct shards.
// The burst datapath calls it once per frame while grouping by
// microflow and hands the result to LookupBatch/PutHashed. The MACs and
// the ingress port, exactly two words, take two multiply-xorshift
// rounds beside the flow hash's chain; the round that joins them brings
// the second word's top bits down to the shard and slot selectors.
func (k *CacheKey) Hash() uint64 {
	const mul = 0xff51afd7ed558ccd // odd: each round is a bijection
	src, dst := macBits(k.EthSrc), macBits(k.EthDst)
	l2 := (src | dst<<48) * mul
	l2 = (l2 ^ l2>>32 ^ (dst>>16 | uint64(k.InPort)<<32)) * mul
	h := (k.Flow.FastHash() ^ l2 ^ l2>>32) * mul
	return h ^ h>>32
}

func macBits(m packet.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

type cacheSlot struct {
	gen   uint64
	entry *Entry // nil caches a definite miss
}

// cacheShard is one independently locked slice of the cache. The
// padding keeps neighbouring shards' mutexes off each other's cache
// line so uncontended shard locks stay uncontended in silicon too.
type cacheShard struct {
	mu     sync.Mutex
	slots  map[CacheKey]cacheSlot
	hits   uint64 // guarded by mu
	misses uint64 // guarded by mu
	_      [24]byte
}

// cacheShards must be a power of two; 64 comfortably exceeds the
// core counts this runs on, making shard collisions between
// concurrently polled ports rare.
const cacheShards = 64

// MicroCache memoizes Table lookups per microflow, the Open vSwitch
// megaflow/microflow idea reduced to its essence: any table mutation
// (tracked by the table generation) invalidates the whole cache lazily.
// The cache is sharded by key hash with one mutex per shard, so
// concurrent ingress ports hit disjoint shards and never serialize on
// a single lock.
type MicroCache struct {
	shards      [cacheShards]cacheShard
	maxPerShard int
}

// NewMicroCache returns a cache bounded at max microflows (0 = 65536).
func NewMicroCache(max int) *MicroCache {
	if max <= 0 {
		max = 65536
	}
	perShard := max / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &MicroCache{maxPerShard: perShard}
	for i := range c.shards {
		c.shards[i].slots = make(map[CacheKey]cacheSlot)
	}
	return c
}

// Get returns the cached entry for key if still valid against gen.
// The second result reports whether the cache had an authoritative
// answer (which may be a cached miss: entry == nil, ok == true).
func (c *MicroCache) Get(key CacheKey, gen uint64) (*Entry, bool) {
	return c.getHashed(&key, key.Hash(), gen)
}

func (c *MicroCache) getHashed(key *CacheKey, hash, gen uint64) (*Entry, bool) {
	sh := &c.shards[hash&(cacheShards-1)]
	sh.mu.Lock()
	s, ok := sh.slots[*key]
	if !ok || s.gen != gen {
		sh.misses++
		sh.mu.Unlock()
		return nil, false
	}
	sh.hits++
	sh.mu.Unlock()
	return s.entry, true
}

// LookupBatch resolves a batch of distinct microflow keys against
// generation gen in one call: entries[i] and cached[i] receive what
// Get(keys[i], gen) would return. hashes carries each key's Hash,
// computed once by the caller during burst grouping — the batch pays
// one hash and one shard visit per distinct key, amortized across
// every frame of the group that produced it. The three slices must be
// the same length; the call allocates nothing.
func (c *MicroCache) LookupBatch(gen uint64, keys []CacheKey, hashes []uint64, entries []*Entry, cached []bool) {
	for i := range keys {
		entries[i], cached[i] = c.getHashed(&keys[i], hashes[i], gen)
	}
}

// Put records the table's answer for key at generation gen.
func (c *MicroCache) Put(key CacheKey, gen uint64, e *Entry) {
	c.putHashed(&key, key.Hash(), gen, e)
}

// PutHashed is Put with the key's hash precomputed (see LookupBatch).
func (c *MicroCache) PutHashed(key CacheKey, hash, gen uint64, e *Entry) {
	c.putHashed(&key, hash, gen, e)
}

func (c *MicroCache) putHashed(key *CacheKey, hash, gen uint64, e *Entry) {
	sh := &c.shards[hash&(cacheShards-1)]
	sh.mu.Lock()
	if len(sh.slots) >= c.maxPerShard {
		if _, exists := sh.slots[*key]; !exists {
			// Cheap pseudo-random eviction: drop an arbitrary slot. Map
			// iteration order is random enough for a cache.
			for k := range sh.slots {
				delete(sh.slots, k)
				break
			}
		}
	}
	sh.slots[*key] = cacheSlot{gen: gen, entry: e}
	sh.mu.Unlock()
}

// Len returns the number of cached microflows.
func (c *MicroCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.slots)
		sh.mu.Unlock()
	}
	return n
}

// Hits returns the total cache hits.
func (c *MicroCache) Hits() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.hits
		sh.mu.Unlock()
	}
	return n
}

// Misses returns the total cache misses.
func (c *MicroCache) Misses() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.misses
		sh.mu.Unlock()
	}
	return n
}

// Reset drops every slot.
func (c *MicroCache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.slots)
		sh.mu.Unlock()
	}
}
