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
// differing only in L2 addressing or ingress land in distinct sets.
// The burst datapath calls it once per frame while grouping by
// microflow and hands the result to LookupBatch/PutHashed. The MACs and
// the ingress port, exactly two words, take two multiply-xorshift
// rounds beside the flow hash's chain; the round that joins them brings
// the second word's top bits down to the set and slot selectors.
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

// cacheWays is the associativity: a microflow may sit in any of the
// four ways of the set its hash indexes.
const cacheWays = 4

// cacheSet is 384 bytes, six cache lines: the four hashes and
// generations share the first, so a probe that matches no hash reads
// nothing else; each key has a line of its own; the entries close it.
type cacheSet struct {
	hash  [cacheWays]uint64
	gen   [cacheWays]uint64
	way   [cacheWays]cacheWay
	entry [cacheWays]*Entry // nil caches a definite miss
	_     [32]byte
}

// cacheWay pads a key to a line; used tells an empty way from the key
// of all zeroes cached at generation 0, where a fresh table starts.
type cacheWay struct {
	key  CacheKey
	used bool
}

// MicroCache memoizes Table lookups per microflow, the Open vSwitch
// exact-match cache reduced to its essence: a power-of-two array of
// 4-way sets indexed by the low bits of the hash the burst computed
// while grouping, each way stamped with the table generation it was
// filled at, so any table mutation invalidates the whole cache lazily
// and stale ways are reused without a sweep. The array is made by the
// first Put and sized by the flows it holds, not by the bound (see
// put). One mutex guards it: the datapath gives every ingress port a
// cache of its own and a port is polled by one goroutine, so the lock
// is taken once per batch and is uncontended by construction.
type MicroCache struct {
	mu      sync.Mutex
	sets    []cacheSet // nil until the first Put; len is a power of two
	maxSets int
	n       int // ways in use, current or stale
	hits    uint64
	misses  uint64
}

// NewMicroCache returns a cache bounded at max microflows (0 = 65536),
// rounded down to a power of two and up to one set. It allocates no
// storage.
func NewMicroCache(max int) *MicroCache {
	if max <= 0 {
		max = 65536
	}
	c := &MicroCache{maxSets: 1}
	for c.maxSets*2*cacheWays <= max {
		c.maxSets *= 2
	}
	return c
}

// Get returns the cached entry for key if still valid against gen.
// The second result reports whether the cache had an authoritative
// answer (which may be a cached miss: entry == nil, ok == true).
func (c *MicroCache) Get(key CacheKey, gen uint64) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probe(&key, key.Hash(), gen)
}

// probe compares hashes before it touches a key. Caller holds mu.
func (c *MicroCache) probe(key *CacheKey, hash, gen uint64) (*Entry, bool) {
	if c.sets != nil {
		s := &c.sets[hash&uint64(len(c.sets)-1)]
		for w := range s.hash {
			if s.hash[w] == hash && s.gen[w] == gen && s.way[w].used && s.way[w].key == *key {
				c.hits++
				return s.entry[w], true
			}
		}
	}
	c.misses++
	return nil, false
}

// LookupBatch resolves a batch of distinct microflow keys against
// generation gen in one call: entries[i] and cached[i] receive what
// Get(keys[i], gen) would return. hashes carries each key's Hash,
// computed once by the caller during burst grouping — the batch pays
// one lock, and one hash and one set visit per distinct key, amortized
// across every frame of the group that produced it. The lock is held
// for the probe loop and nothing else. The slices must be the same
// length; the call allocates nothing.
func (c *MicroCache) LookupBatch(gen uint64, keys []CacheKey, hashes []uint64, entries []*Entry, cached []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range keys {
		entries[i], cached[i] = c.probe(&keys[i], hashes[i], gen)
	}
}

// Put records the table's answer for key at generation gen.
func (c *MicroCache) Put(key CacheKey, gen uint64, e *Entry) {
	c.PutHashed(key, key.Hash(), gen, e)
}

// PutHashed is Put with the key's hash precomputed (see LookupBatch).
func (c *MicroCache) PutHashed(key CacheKey, hash, gen uint64, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&key, hash, gen, e)
}

// put overwrites, in this order: the way that holds key; an empty or
// stale-generation way; after doubling the array, one of those; the way
// named by the hash's top bits, which no index reaches. The array
// doubles only while at least a quarter of its ways are in use: a full
// set in an emptier array is bad luck that costs one table probe per
// visit, where an array grown on every such set spreads a few thousand
// flows over megabytes and every probe misses L2.
func (c *MicroCache) put(key *CacheKey, hash, gen uint64, e *Entry) {
	if c.sets == nil {
		c.sets = make([]cacheSet, 1)
	}
	for {
		s := &c.sets[hash&uint64(len(c.sets)-1)]
		at := -1
		for w := range s.hash {
			if s.way[w].used && s.hash[w] == hash && s.way[w].key == *key {
				at = w
				break
			}
			if at < 0 && (!s.way[w].used || s.gen[w] != gen) {
				at = w
			}
		}
		if at < 0 {
			if len(c.sets) < c.maxSets && c.n >= len(c.sets)*cacheWays/4 {
				c.grow(gen)
				continue
			}
			at = int(hash >> 62)
		}
		if !s.way[at].used {
			c.n++
		}
		s.hash[at], s.gen[at], s.entry[at] = hash, gen, e
		s.way[at] = cacheWay{key: *key, used: true}
		return
	}
}

// grow doubles the array and moves the ways still at generation gen.
// A set splits in two by the next hash bit, so every way finds room.
func (c *MicroCache) grow(gen uint64) {
	old := c.sets
	c.sets, c.n = make([]cacheSet, 2*len(old)), 0
	for i := range old {
		s := &old[i]
		for w := range s.hash {
			if s.way[w].used && s.gen[w] == gen {
				c.put(&s.way[w].key, s.hash[w], gen, s.entry[w])
			}
		}
	}
}

// Len returns the number of cached microflows.
func (c *MicroCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Hits returns the total cache hits.
func (c *MicroCache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the total cache misses.
func (c *MicroCache) Misses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}
