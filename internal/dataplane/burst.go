package dataplane

import (
	"sync"
	"time"

	"repro/internal/flowtable"
	"repro/internal/nf"
	"repro/internal/packet"
)

// burst is the pooled working state of one HandleBurst call: the execs
// its frames run on, per-frame microflow keys, the grouping of frames by
// key, and the scratch the batched cache/table lookups fill in. Bursts
// are pooled — the package's one sync.Pool — and every slice, exec and
// exec buffer keeps its capacity across uses, so the steady state
// allocates nothing regardless of burst size.
//
// The frame bytes themselves are borrowed from the caller for the
// duration of the call, exactly like HandleFrame: never mutated (COW on
// rewrite) and never retained.
type burst struct {
	// Per frame, index-aligned with the caller's frames slice. A nil
	// exec marks a frame that died on ingress (port down, malformed).
	execs  []*exec
	keys   []flowtable.CacheKey
	hashes []uint64
	group  []int32 // index into groups, -1 for dead frames

	// Per microflow group.
	groups  []burstGroup
	gkeys   []flowtable.CacheKey
	ghashes []uint64
	entries []*flowtable.Entry
	cached  []bool

	// Table-lookup requests for the groups the cache could not answer,
	// and the group index each request resolves.
	reqs     []flowtable.BatchLookup
	reqGroup []int32

	// Open-addressing map from key hash to group index, used while
	// grouping. len is a power of two at least twice the largest burst
	// seen; used records the occupied slots so release resets only
	// those, keeping 1-frame bursts cheap after a large one.
	tab  []int32
	used []int32

	// Every exec the burst has ever made, handed out and taken back in
	// stack order: arena[:top] are in use — one per live frame, taken at
	// ingress and held to the end of the call, and above them one per
	// group bucket being executed, popped when the bucket returns (so
	// the group-depth guard bounds the arena). inject and Trace take one
	// from a burst of no frames.
	arena []*exec
	top   int

	// What the call has transmitted, per egress port — a handful, so a
	// linear search. putBurst folds it into the port counters.
	tx []portTx
}

type portTx struct {
	port           *Port
	packets, bytes uint64
}

// noteTx counts one n-byte frame transmitted on p.
func (b *burst) noteTx(p *Port, n int) {
	for i := range b.tx {
		if b.tx[i].port == p {
			b.tx[i].packets++
			b.tx[i].bytes += uint64(n)
			return
		}
	}
	b.tx = append(b.tx, portTx{p, 1, uint64(n)})
}

// take hands out the next exec, borrowing no bytes yet.
func (b *burst) take(s *Switch, pl *pipeline, now time.Time) *exec {
	if b.top == len(b.arena) {
		b.arena = append(b.arena, &exec{b: b})
	}
	x := b.arena[b.top]
	b.top++
	x.sw, x.pl, x.now, x.own = s, pl, now, 0
	return x
}

// pop takes back the exec handed out last, dropping what it references:
// the snapshot, the trace, and the packet view with the conntrack entry
// one stage left on it for the next.
func (b *burst) pop() {
	b.top--
	x := b.arena[b.top]
	x.pkt = nf.Packet{}
	x.sw, x.pl, x.trace = nil, nil, nil
}

// burstGroup is one microflow within a burst: every frame sharing a
// cache key, resolved by a single lookup.
type burstGroup struct {
	leader  int32 // index of the first frame; its decoded header represents the group
	packets uint64
	bytes   uint64
}

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// getBurst returns a pooled burst sized for n frames.
func getBurst(n int) *burst {
	b := burstPool.Get().(*burst)
	b.grow(n)
	return b
}

// grow sizes every per-frame slice to n, growing capacity if this is
// the largest burst the struct has seen.
func (b *burst) grow(n int) {
	if cap(b.execs) < n {
		b.execs = make([]*exec, n)
		b.keys = make([]flowtable.CacheKey, n)
		b.hashes = make([]uint64, n)
		b.group = make([]int32, n)
		b.gkeys = make([]flowtable.CacheKey, 0, n)
		b.ghashes = make([]uint64, 0, n)
		b.entries = make([]*flowtable.Entry, 0, n)
		b.cached = make([]bool, 0, n)
		b.reqs = make([]flowtable.BatchLookup, 0, n)
		b.reqGroup = make([]int32, 0, n)
		b.used = make([]int32, 0, n)
		tn := 1
		for tn < 2*n {
			tn <<= 1
		}
		b.tab = make([]int32, tn)
		for i := range b.tab {
			b.tab[i] = -1
		}
	} else {
		b.execs = b.execs[:n]
		b.keys = b.keys[:n]
		b.hashes = b.hashes[:n]
		b.group = b.group[:n]
	}
	b.groups = b.groups[:0]
	b.gkeys = b.gkeys[:0]
	b.ghashes = b.ghashes[:0]
	b.entries = b.entries[:0]
	b.cached = b.cached[:0]
	b.reqs = b.reqs[:0]
	b.reqGroup = b.reqGroup[:0]
	b.used = b.used[:0]
}

// putBurst adds what the call transmitted to the egress ports' counters
// — one add per port, whoever ran on the burst: frames, inject, nested
// group buckets — resets the grouping table, takes every exec back and
// drops entry references before returning the burst to the pool (pooled
// structs must not pin ports, flow entries, snapshots or conntrack
// entries past the call).
func putBurst(b *burst) {
	for i, t := range b.tx {
		t.port.txPackets.Add(t.packets)
		t.port.txBytes.Add(t.bytes)
		b.tx[i] = portTx{}
	}
	b.tx = b.tx[:0]
	for _, slot := range b.used {
		b.tab[slot] = -1
	}
	for b.top > 0 {
		b.pop()
	}
	for i := range b.entries {
		b.entries[i] = nil
	}
	for i := range b.reqs {
		b.reqs[i] = flowtable.BatchLookup{}
	}
	burstPool.Put(b)
}

// HandleBurst runs a batch of frames arriving on inPort through the
// pipeline with the batching the run-to-completion model calls for:
// one pipeline-snapshot load and one rx/tx counter update per port for
// the whole burst, frames grouped by extracted microflow key, and one
// lookup in the ingress port's MicroCache (else the flow table) per
// distinct key — the hash and set visit amortized across every frame
// of the group. Execution then proceeds frame by frame in arrival
// order on the burst's own execs, so action semantics, packet-in
// ordering and trace/explain parity are identical to len(frames)
// HandleFrame calls; only the lookup and accounting costs shrink.
//
// Frame slices are borrowed for the duration of the call and never
// mutated or retained — callers may reuse them immediately after
// return. Like HandleFrame, any number of goroutines may call
// HandleBurst (and HandleFrame) concurrently.
func (s *Switch) HandleBurst(inPort uint32, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	pl := s.pl.Load()
	p := pl.ports[inPort]
	if p == nil {
		return
	}
	s.burstSizes.ObserveValue(uint64(len(frames)))
	b := getBurst(len(frames))
	s.runBurst(pl, p, inPort, frames, b)
	putBurst(b)
}

// runBurst is the burst engine shared by HandleBurst and the 1-frame
// HandleFrame wrapper. b is sized for len(frames).
func (s *Switch) runBurst(pl *pipeline, p *Port, inPort uint32, frames [][]byte, b *burst) {
	now := s.cfg.Clock()

	// Ingress: port accounting once for the burst, decode, microflow-key
	// extraction. Each key is hashed exactly once, here; the grouping
	// table and the cache both consume that hash.
	if !p.up.Load() {
		p.rxDropped.Add(uint64(len(frames)))
		return
	}
	live, rxBytes := 0, 0
	for i, data := range frames {
		rxBytes += len(data)
		x := b.take(s, pl, now)
		if err := packet.Decode(data, &x.frame); err != nil {
			b.pop()
			b.execs[i] = nil
			continue // malformed frames die here, like on real silicon
		}
		b.execs[i] = x
		b.keys[i] = flowtable.MakeCacheKey(&x.frame, inPort)
		b.hashes[i] = b.keys[i].Hash()
		live++
	}
	p.rxPackets.Add(uint64(len(frames)))
	p.rxBytes.Add(uint64(rxBytes))
	if live == 0 {
		return
	}

	// Group frames by microflow key: open addressing over the pooled
	// table, linear probing, collisions resolved by full key compare.
	mask := uint64(len(b.tab) - 1)
	for i := range frames {
		if b.execs[i] == nil {
			b.group[i] = -1
			continue
		}
		h := b.hashes[i]
		slot := h & mask
		for {
			g := b.tab[slot]
			if g < 0 {
				g = int32(len(b.groups))
				b.tab[slot] = g
				b.used = append(b.used, int32(slot))
				b.group[i] = g
				b.groups = append(b.groups, burstGroup{
					leader: int32(i), packets: 1, bytes: uint64(len(frames[i]))})
				b.gkeys = append(b.gkeys, b.keys[i])
				b.ghashes = append(b.ghashes, h)
				break
			}
			if b.ghashes[g] == h && b.gkeys[g] == b.keys[i] {
				b.groups[g].packets++
				b.groups[g].bytes += uint64(len(frames[i]))
				b.group[i] = g
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Resolve each distinct microflow once. The generation is read
	// before the lookups, same as the per-frame path: a racing table
	// mutation can only make a cached answer newer than the recorded
	// gen, and the next lookup self-heals on the gen mismatch.
	t0 := pl.tables[0]
	gen := t0.Gen()
	ng := len(b.groups)
	b.entries = b.entries[:ng]
	b.cached = b.cached[:ng]
	p.cache.LookupBatch(gen, b.gkeys, b.ghashes, b.entries, b.cached)
	for g := 0; g < ng; g++ {
		grp := &b.groups[g]
		if b.cached[g] {
			// Cached answers still account against the entry and table —
			// one aggregated add per group instead of one per frame.
			if e := b.entries[g]; e != nil {
				e.TouchN(now, grp.packets, grp.bytes)
				t0.NoteLookupN(inPort, true, grp.packets)
			} else {
				t0.NoteLookupN(inPort, false, grp.packets)
			}
			continue
		}
		b.reqs = append(b.reqs, flowtable.BatchLookup{
			Frame:   &b.execs[grp.leader].frame,
			Packets: grp.packets,
			Bytes:   grp.bytes,
		})
		b.reqGroup = append(b.reqGroup, int32(g))
	}
	if len(b.reqs) > 0 {
		t0.LookupBatch(b.reqs, inPort, now)
		for i := range b.reqs {
			g := b.reqGroup[i]
			b.entries[g] = b.reqs[i].Entry
			p.cache.PutHashed(b.gkeys[g], b.ghashes[g], gen, b.reqs[i].Entry)
		}
	}

	// Execute in arrival order so per-port frame and packet-in ordering
	// match the frame-at-a-time path exactly.
	for i, x := range b.execs {
		if x != nil {
			x.runFrom(inPort, frames[i], b.entries[b.group[i]])
		}
	}
}
