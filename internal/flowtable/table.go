// Package flowtable implements the match-action tables at the heart of
// the data plane: an authoritative table with OpenFlow add/modify/delete
// semantics and idle/hard timeouts, classified by a priority-aware
// tuple-space index (index.go) whose answer is always the one a scan of
// the rules in priority order would give, and a microflow cache in the
// style of Open vSwitch in front of it.
//
// Concurrency model: Table follows the read-copy-update discipline of
// the software datapath. Mutations (Add/Modify/Delete/Sweep) must be
// externally serialized — the switch's control mutex does this — and
// each mutation publishes the next generation of the index through an
// atomic pointer. The index is edited in place, but a write only adds
// leaves no published view can see and stamps the ones it removes dead
// from the generation it is about to publish: a view never changes.
// Lookup, Entries, Gen, Len and Stats read that view and are safe to
// call concurrently with mutations and with each other; they never
// block a writer and a writer never blocks them. Hit accounting uses
// atomics (per-entry counters, per-table striped counters) so the read
// path stays contention-free.
package flowtable

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/zof"
)

// Errors returned by table mutations.
var (
	ErrOverlap   = errors.New("flowtable: overlapping entry with equal priority")
	ErrTableFull = errors.New("flowtable: table full")
)

// Entry is one installed flow rule plus its runtime state. Match,
// Priority, Cookie, Actions, Flags, timeouts and Created are immutable
// after installation (FlowModify replaces the entry rather than
// mutating it in place), so concurrent readers may use them freely.
// The hit counters are atomics updated by concurrent lookups.
type Entry struct {
	Match    zof.Match
	Priority uint16
	Cookie   uint64
	Actions  []zof.Action
	Flags    uint16

	IdleTimeout time.Duration // zero = never idles out
	HardTimeout time.Duration // zero = never hard-expires

	Created time.Time

	packets  atomic.Uint64
	bytes    atomic.Uint64
	lastUsed atomic.Int64 // unix nanos

	// seq is the entry's install order within its table: set by Add,
	// inherited by whatever replaces the entry in place, immutable once
	// published. Ties between equal priorities go to the lower seq.
	seq uint64

	// leaf is the entry's first leaf, linked by Add or Modify in the
	// entry's own allocation; a rebuild moves it into a slab.
	leaf leaf
}

// Packets returns the entry's packet counter.
func (e *Entry) Packets() uint64 { return e.packets.Load() }

// Bytes returns the entry's byte counter.
func (e *Entry) Bytes() uint64 { return e.bytes.Load() }

// LastUsed returns the time of the entry's most recent hit.
func (e *Entry) LastUsed() time.Time { return time.Unix(0, e.lastUsed.Load()) }

// TouchN records a group of packets frames totalling bytes bytes at
// time now: one atomic add per counter covers every frame of a
// microflow group (a single frame is a group of one). Safe for
// concurrent use; the microflow-cached fast path calls it without any
// table lock.
func (e *Entry) TouchN(now time.Time, packets, bytes uint64) {
	n := now.UnixNano()
	// Skip the store when the clock has not advanced (virtual-time
	// benches): keeps the line clean of needless writes.
	if e.lastUsed.Load() != n {
		e.lastUsed.Store(n)
	}
	e.packets.Add(packets)
	e.bytes.Add(bytes)
}

// cloneForModify copies the entry with new actions and cookie,
// preserving identity fields and carrying the counters over. The
// original stays untouched so concurrent readers holding it (via a
// table view or the microflow cache) never observe a half-written
// action list.
func (e *Entry) cloneForModify(actions []zof.Action, cookie uint64) *Entry {
	ne := &Entry{
		Match:       e.Match,
		Priority:    e.Priority,
		Cookie:      cookie,
		Actions:     actions,
		Flags:       e.Flags,
		IdleTimeout: e.IdleTimeout,
		HardTimeout: e.HardTimeout,
		Created:     e.Created,
		seq:         e.seq,
	}
	ne.packets.Store(e.packets.Load())
	ne.bytes.Store(e.bytes.Load())
	ne.lastUsed.Store(e.lastUsed.Load())
	return ne
}

// Expired reports whether the entry has idled or hard-expired at now,
// and with which FlowRemoved reason.
func (e *Entry) Expired(now time.Time) (bool, uint8) {
	if e.HardTimeout > 0 && now.Sub(e.Created) >= e.HardTimeout {
		return true, zof.RemovedHardTimeout
	}
	if e.IdleTimeout > 0 && now.Sub(e.LastUsed()) >= e.IdleTimeout {
		return true, zof.RemovedIdleTimeout
	}
	return false, 0
}

// counterStripes spreads a hot counter over several cache lines so
// concurrent ingress ports don't serialize on one line. Eight stripes
// cover the port counts the emulator runs per switch; the stripe hint
// is the ingress port number.
const counterStripes = 8

type stripedCounter [counterStripes]struct {
	n atomic.Uint64
	_ [56]byte // pad to a cache line
}

func (c *stripedCounter) addN(hint uint32, n uint64) { c[hint%counterStripes].n.Add(n) }

func (c *stripedCounter) load() uint64 {
	var sum uint64
	for i := range c {
		sum += c[i].n.Load()
	}
	return sum
}

// tableView is one immutable published state of a table: the index
// (one tuple per mask shape, in descending order of highest priority),
// the entry count and the generation that produced them. Readers load
// it once and work against a consistent snapshot.
type tableView struct {
	tuples []tuple
	n      int
	gen    uint64

	// snap caches Entries() for this view: built from the index by the
	// first reader that asks, at most once per generation.
	snap atomic.Pointer[[]*Entry]
}

// Table is the authoritative flow table. The highest-priority matching
// entry wins a lookup, the earlier install among equal priorities.
// Mutations must be externally serialized; reads go through the
// published view and are lock-free (see the package comment).
type Table struct {
	// entries is the writer's own list in before order — what Modify,
	// wildcard deletes and Sweep scan. Never aliased by a view, so it is
	// edited in place.
	entries []*Entry
	maxSize int
	gen     uint64 // bumped on every mutation; consumed by MicroCache
	seq     uint64 // last Entry.seq handed out

	view atomic.Pointer[tableView]

	lookups stripedCounter // total lookups (table stats)
	matches stripedCounter // lookups that hit
}

// NewTable returns a table bounded at maxSize entries (0 = unbounded).
func NewTable(maxSize int) *Table {
	t := &Table{maxSize: maxSize}
	t.view.Store(&tableView{})
	return t
}

// publish makes the writer's state, indexed by tuples, the table's
// next generation: t.gen+1, the one the write stamped its leaves with.
func (t *Table) publish(tuples []tuple) {
	t.gen++
	t.view.Store(&tableView{tuples: settled(tuples), n: len(t.entries), gen: t.gen})
}

// pos returns where e sits, or would be inserted, in the writer's list.
func (t *Table) pos(e *Entry) int {
	i, _ := slices.BinarySearchFunc(t.entries, e, order)
	return i
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.view.Load().n }

// Shapes returns the number of distinct mask shapes installed: the
// number of hash probes a lookup may have to make.
func (t *Table) Shapes() int { return len(t.view.Load().tuples) }

// Gen returns the mutation generation, used for cache invalidation.
func (t *Table) Gen() uint64 { return t.view.Load().gen }

// Lookups returns the total number of lookups (table stats).
func (t *Table) Lookups() uint64 { return t.lookups.load() }

// Matches returns the number of lookups that hit (table stats).
func (t *Table) Matches() uint64 { return t.matches.load() }

// NoteLookupN accounts n lookups with one matched verdict against the
// table counters, in a single striped-counter add, without performing
// them — the datapath's microflow-cache hit path, where a whole
// microflow group shares one cached answer. hint picks the counter
// stripe; callers pass the ingress port.
func (t *Table) NoteLookupN(hint uint32, matched bool, n uint64) {
	t.lookups.addN(hint, n)
	if matched {
		t.matches.addN(hint, n)
	}
}

// Entries returns the live entries in priority order as an immutable
// snapshot; callers must not mutate it. Safe under concurrent
// mutation: the snapshot is read out of the published index, not the
// writer's list, and kept with the view for the next caller.
func (t *Table) Entries() []*Entry {
	v := t.view.Load()
	if s := v.snap.Load(); s != nil {
		return *s
	}
	s := entriesAt(v.tuples, v.gen, v.n)
	v.snap.Store(&s)
	return s
}

// Add installs a new entry per OpenFlow FlowAdd: an existing entry with
// identical match and priority is replaced (counters reset); with
// checkOverlap set, an entry whose match overlaps an existing one's at
// equal priority is refused. The table takes e, which must not have
// been added before: its first leaf is the one inside it.
func (t *Table) Add(e *Entry, checkOverlap bool, now time.Time) error {
	e.Created = now
	e.lastUsed.Store(now.UnixNano())
	tuples := t.view.Load().tuples
	s, old, k, h := locate(tuples, &e.Match, e.Priority)
	if old != nil {
		e.seq = old.e.seq
		t.entries[t.pos(old.e)] = e
		old.died.Store(t.gen + 1)
	} else {
		if checkOverlap {
			for _, old := range t.entries {
				if old.Priority == e.Priority && old.Match.Overlaps(&e.Match) {
					return ErrOverlap
				}
			}
		}
		if t.maxSize > 0 && len(t.entries) >= t.maxSize {
			return ErrTableFull
		}
		// Last of its priority: the highest seq so far.
		t.seq++
		e.seq = t.seq
		t.entries = slices.Insert(t.entries, t.pos(e), e)
		if s == nil {
			s = &shape{}
			s.buckets, s.prios = s.bucket0[:], s.prio0[:0]
			i, _ := slices.BinarySearchFunc(tuples, e.Priority, func(x tuple, max uint16) int { return cmp.Compare(max, x.max) })
			tuples = slices.Insert(slices.Clip(tuples), i, tuple{mask: maskOf(&e.Match), max: e.Priority, tab: s})
		}
		s.count(e.Priority, 1)
	}
	e.leaf = leaf{hash: h, key: k, e: e, born: t.gen + 1}
	s.link(&e.leaf)
	t.publish(tuples)
	return nil
}

// Modify updates the actions (and cookie) of every entry subsumed by m,
// preserving counters, per OpenFlow FlowModify. Each affected entry is
// replaced by a copy (read-copy-update) so in-flight lookups keep a
// consistent action list. It returns the number of entries changed.
func (t *Table) Modify(m zof.Match, actions []zof.Action, cookie uint64) int {
	tuples := t.view.Load().tuples
	n := 0
	for i, e := range t.entries {
		if m.Subsumes(&e.Match) {
			ne := e.cloneForModify(actions, cookie)
			t.entries[i] = ne
			s, l, _, _ := locate(tuples, &e.Match, e.Priority)
			l.died.Store(t.gen + 1)
			ne.leaf = leaf{hash: l.hash, key: l.key, e: ne, born: t.gen + 1}
			s.link(&ne.leaf)
			n++
		}
	}
	if n > 0 {
		t.publish(tuples)
	}
	return n
}

// DeleteStrict removes only the entry whose match and priority are
// exactly m and priority.
func (t *Table) DeleteStrict(m zof.Match, priority uint16) []*Entry {
	return t.DeleteStrictFunc(m, priority, nil)
}

// DeleteStrictFunc is the strict delete with a filter: rule identity
// names at most one entry, which the index finds without a scan, and
// it goes only if pred (when not nil) accepts it.
func (t *Table) DeleteStrictFunc(m zof.Match, priority uint16, pred func(*Entry) bool) []*Entry {
	tuples := t.view.Load().tuples
	s, l, _, _ := locate(tuples, &m, priority)
	if l == nil || pred != nil && !pred(l.e) {
		return nil
	}
	i := t.pos(l.e)
	t.entries = slices.Delete(t.entries, i, i+1)
	l.died.Store(t.gen + 1)
	s.count(l.e.Priority, -1)
	t.publish(tuples)
	return []*Entry{l.e}
}

// Capacity returns the table's configured entry bound (0 = unbounded).
func (t *Table) Capacity() int { return t.maxSize }

// DeleteFunc removes every entry for which pred returns true and
// returns the removed entries. It is the datapath's non-strict delete
// (pred: the mod's match subsumes the entry's and its cookie filter
// passes) and its cross-cutting sweeps, e.g. cascading a group delete
// onto the flows that reference the group. However many entries go,
// readers see one new view: all of them gone, or none.
func (t *Table) DeleteFunc(pred func(*Entry) bool) []*Entry {
	tuples := t.view.Load().tuples
	var removed []*Entry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if pred(e) {
			removed = append(removed, e)
			s, l, _, _ := locate(tuples, &e.Match, e.Priority)
			l.died.Store(t.gen + 1)
			s.count(e.Priority, -1)
		} else {
			kept = append(kept, e)
		}
	}
	clear(t.entries[len(kept):])
	t.entries = kept
	if len(removed) > 0 {
		t.publish(tuples)
	}
	return removed
}

// Lookup returns the highest-priority entry matching the frame on
// inPort, updating its counters, or nil. bytes is the frame length for
// byte counters. Lock-free: it probes the published view and may run
// concurrently with mutations, observing either the old or new state.
func (t *Table) Lookup(f *packet.Frame, inPort uint32, bytes int, now time.Time) *Entry {
	v := t.view.Load()
	e := classify(v.tuples, v.gen, f, inPort)
	if e != nil {
		e.TouchN(now, 1, uint64(bytes))
	}
	t.NoteLookupN(inPort, e != nil, 1)
	return e
}

// BatchLookup is one microflow group's lookup in a Table.LookupBatch:
// the group's representative decoded frame, how many frames and bytes
// the group carries, and the resolved entry (out).
type BatchLookup struct {
	Frame   *packet.Frame
	Packets uint64
	Bytes   uint64
	Entry   *Entry // out: the matched entry, or nil on miss
}

// LookupBatch resolves every group in reqs against a single published
// view of the table — one RCU snapshot load for the whole burst — and
// advances the counters in aggregate: each matched group's entry takes
// one TouchN for all its frames, and the table's striped lookup/match
// counters each take a single add covering the batch. The per-frame
// accounting totals are identical to len(reqs) individual Lookup
// calls; only the number of atomic operations shrinks. Lock-free and
// allocation-free, safe to run concurrently with mutations.
func (t *Table) LookupBatch(reqs []BatchLookup, inPort uint32, now time.Time) {
	if len(reqs) == 0 {
		return
	}
	v := t.view.Load()
	var total, matched uint64
	for i := range reqs {
		r := &reqs[i]
		total += r.Packets
		e := classify(v.tuples, v.gen, r.Frame, inPort)
		r.Entry = e
		if e != nil {
			e.TouchN(now, r.Packets, r.Bytes)
			matched += r.Packets
		}
	}
	t.lookups.addN(inPort, total)
	if matched > 0 {
		t.matches.addN(inPort, matched)
	}
}

// Peek returns the highest-priority entry matching the frame on inPort
// without touching any counter — Lookup's decision, none of its side
// effects. The explain-mode pipeline tracer (dataplane.Switch.Trace)
// uses it so tracing a packet never perturbs flow or table statistics.
func (t *Table) Peek(f *packet.Frame, inPort uint32) *Entry {
	v := t.view.Load()
	return classify(v.tuples, v.gen, f, inPort)
}

// Sweep removes all entries expired at now and returns them paired with
// their FlowRemoved reason.
func (t *Table) Sweep(now time.Time) []Removed {
	var out []Removed
	t.DeleteFunc(func(e *Entry) bool {
		ok, reason := e.Expired(now)
		if ok {
			out = append(out, Removed{Entry: e, Reason: reason})
		}
		return ok
	})
	return out
}

// Removed pairs an expired entry with its removal reason.
type Removed struct {
	Entry  *Entry
	Reason uint8
}

// Stats summarizes the table for a zof table-stats reply.
func (t *Table) Stats(id uint8) zof.TableStats {
	return zof.TableStats{
		TableID:      id,
		ActiveCount:  uint32(t.Len()),
		LookupCount:  t.Lookups(),
		MatchedCount: t.Matches(),
	}
}
