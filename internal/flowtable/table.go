// Package flowtable implements the match-action tables at the heart of
// the data plane: an authoritative priority-ordered table with OpenFlow
// add/modify/delete semantics and idle/hard timeouts, a microflow cache
// in the style of Open vSwitch, an IPv4 longest-prefix-match trie, and
// tuple-space search for wildcard rules. The live datapath uses the
// table and the cache; the trie and tuple-space search are the
// comparison set for the lookup-scaling experiment (E2).
//
// Concurrency model: Table follows the read-copy-update discipline of
// the software datapath. Mutations (Add/Modify/Delete/Sweep) must be
// externally serialized — the switch's control mutex does this — and
// each mutation publishes a fresh immutable view of the entry list
// through an atomic pointer. Lookup, Entries, Gen, Len and Stats read
// that view and are safe to call concurrently with mutations and with
// each other; they never block a writer and a writer never blocks
// them. Hit accounting uses atomics (per-entry counters, per-table
// striped counters) so the read path stays contention-free.
package flowtable

import (
	"errors"
	"sort"
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

// tableView is one immutable published state of a table: the entries
// in priority order plus the generation that produced them. Readers
// load it once and work against a consistent snapshot.
type tableView struct {
	entries []*Entry
	gen     uint64
}

// Table is the authoritative flow table: entries ordered by descending
// priority (stable within equal priority), linear lookup. Mutations
// must be externally serialized; reads go through the published view
// and are lock-free (see the package comment).
type Table struct {
	entries []*Entry // writer-owned; never aliased by a view
	maxSize int
	gen     uint64 // bumped on every mutation; consumed by MicroCache

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

// publish snapshots the writer's entry list into a fresh view. The
// clone is what makes in-place edits of t.entries safe: no reader ever
// holds the writer's backing array.
func (t *Table) publish() {
	t.view.Store(&tableView{
		entries: append([]*Entry(nil), t.entries...),
		gen:     t.gen,
	})
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.view.Load().entries) }

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
// mutation — the slice is never updated in place.
func (t *Table) Entries() []*Entry { return t.view.Load().entries }

// Add installs a new entry per OpenFlow FlowAdd: an existing entry with
// identical match and priority is replaced (counters reset); with
// checkOverlap set, an entry whose match could overlap an existing one
// at equal priority is refused.
func (t *Table) Add(e *Entry, checkOverlap bool, now time.Time) error {
	e.Created = now
	e.lastUsed.Store(now.UnixNano())
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			t.gen++
			t.publish()
			return nil
		}
	}
	if checkOverlap {
		for _, old := range t.entries {
			if old.Priority == e.Priority &&
				(old.Match.Subsumes(&e.Match) || e.Match.Subsumes(&old.Match)) {
				return ErrOverlap
			}
		}
	}
	if t.maxSize > 0 && len(t.entries) >= t.maxSize {
		return ErrTableFull
	}
	// Insert keeping descending priority order, after equal priorities.
	i := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < e.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.gen++
	t.publish()
	return nil
}

// Modify updates the actions (and cookie) of every entry subsumed by m,
// preserving counters, per OpenFlow FlowModify. Each affected entry is
// replaced by a copy (read-copy-update) so in-flight lookups keep a
// consistent action list. It returns the number of entries changed.
func (t *Table) Modify(m zof.Match, actions []zof.Action, cookie uint64) int {
	n := 0
	for i, e := range t.entries {
		if m.Subsumes(&e.Match) {
			t.entries[i] = e.cloneForModify(actions, cookie)
			n++
		}
	}
	if n > 0 {
		t.gen++
		t.publish()
	}
	return n
}

// Delete removes every entry subsumed by m (any priority) and returns
// the removed entries for FlowRemoved generation.
func (t *Table) Delete(m zof.Match) []*Entry {
	return t.deleteIf(func(e *Entry) bool { return m.Subsumes(&e.Match) })
}

// DeleteStrict removes only the entry whose match and priority are
// exactly m and priority.
func (t *Table) DeleteStrict(m zof.Match, priority uint16) []*Entry {
	return t.deleteIf(func(e *Entry) bool {
		return e.Priority == priority && e.Match == m
	})
}

// DeleteByCookie removes every entry subsumed by m whose cookie equals
// cookie exactly (zof.FlagCookieFilter semantics).
func (t *Table) DeleteByCookie(m zof.Match, cookie uint64) []*Entry {
	return t.deleteIf(func(e *Entry) bool {
		return e.Cookie == cookie && m.Subsumes(&e.Match)
	})
}

// DeleteStrictByCookie removes only the exact match+priority entry, and
// only if its cookie equals cookie — the race-free primitive session
// reconciliation uses: a delete aimed at a stale entry cannot remove a
// fresh one installed under the same match with a different cookie.
func (t *Table) DeleteStrictByCookie(m zof.Match, priority uint16, cookie uint64) []*Entry {
	return t.deleteIf(func(e *Entry) bool {
		return e.Cookie == cookie && e.Priority == priority && e.Match == m
	})
}

// DeleteFunc removes every entry for which pred returns true and
// returns the removed entries. It is the general-purpose deletion
// primitive the datapath uses for cross-cutting sweeps, e.g. cascading
// a group delete onto the flows that reference the group.
func (t *Table) DeleteFunc(pred func(*Entry) bool) []*Entry {
	return t.deleteIf(pred)
}

// Capacity returns the table's configured entry bound (0 = unbounded).
func (t *Table) Capacity() int { return t.maxSize }

func (t *Table) deleteIf(pred func(*Entry) bool) []*Entry {
	var removed []*Entry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if pred(e) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = kept
	if len(removed) > 0 {
		t.gen++
		t.publish()
	}
	return removed
}

// find is the table's one classifier: the highest-priority entry of a
// view's entries matching the frame on inPort, or nil. Entries are in
// descending priority order, so the first match wins. It touches no
// counter; Lookup, LookupBatch and Peek differ only in the accounting
// they add around it.
func find(entries []*Entry, f *packet.Frame, inPort uint32) *Entry {
	for _, e := range entries {
		if e.Match.MatchesFrame(f, inPort) {
			return e
		}
	}
	return nil
}

// Lookup returns the highest-priority entry matching the frame on
// inPort, updating its counters, or nil. bytes is the frame length for
// byte counters. Lock-free: it walks the published view and may run
// concurrently with mutations, observing either the old or new state.
func (t *Table) Lookup(f *packet.Frame, inPort uint32, bytes int, now time.Time) *Entry {
	e := find(t.view.Load().entries, f, inPort)
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
	entries := t.view.Load().entries
	var total, matched uint64
	for i := range reqs {
		r := &reqs[i]
		total += r.Packets
		e := find(entries, r.Frame, inPort)
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
	return find(t.view.Load().entries, f, inPort)
}

// Sweep removes all entries expired at now and returns them paired with
// their FlowRemoved reason.
func (t *Table) Sweep(now time.Time) []Removed {
	var out []Removed
	kept := t.entries[:0]
	for _, e := range t.entries {
		if ok, reason := e.Expired(now); ok {
			out = append(out, Removed{Entry: e, Reason: reason})
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = kept
	if len(out) > 0 {
		t.gen++
		t.publish()
	}
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
