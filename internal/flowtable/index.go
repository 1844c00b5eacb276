package flowtable

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/zof"
)

// The table's classifier is a priority-aware tuple space search
// (Srinivasan et al.; the staged exit is Open vSwitch's): all rules
// sharing a mask shape live in one hash table keyed by the masked field
// values, a lookup probes the shapes in descending order of their
// highest priority and stops once nothing left can beat what it holds.
// Cost is O(shapes), not O(rules). A view is a generation: a write
// edits the tables in place, by leaves stamped with the generations
// that can see them, and never changes what a published view holds.

// fieldKey packs every field a match can test, and which layers are
// present to be tested, into five words (layout in keyOfMatch). ANDed
// with a mask it is the key of that mask's hash table: untested fields
// zeroed, comparable, so a probe is one equality test.
type fieldKey [5]uint64

// Layer bits in word 4 of a fieldKey. A rule has every layer; a frame
// has the ones it carries; a mask tests the ones its fields live in. So
// a rule pinning a VLAN differs in hasVLAN from an untagged frame, and
// the cases zof.Match.MatchesFrame refuses outright — VLAN, even 0,
// against untagged; protocol or address against non-IPv4; either port
// against neither TCP nor UDP — are refused by key inequality.
const (
	hasVLAN uint64 = 1 << (8 + iota)
	hasIPv4
	hasL4
)

// fieldBits[i] is where the field wildcarded by bit 1<<i sits in a
// fieldKey, and the layer it needs. The two addresses share word 3.
var fieldBits = [8]struct {
	word        int
	bits, layer uint64
}{
	{0, 0xffffffff, 0},         // WInPort
	{1, 1<<48 - 1, 0},          // WEthSrc
	{2, 1<<48 - 1, 0},          // WEthDst
	{0, 0xffff << 32, 0},       // WEtherType
	{0, 0xffff << 48, hasVLAN}, // WVLAN
	{4, 0xff, hasIPv4},         // WIPProto
	{1, 0xffff << 48, hasL4},   // WTPSrc
	{2, 0xffff << 48, hasL4},   // WTPDst
}

// maskOf is the fieldKey with ones under every field m tests: its mask
// shape. Rules with equal masks share a hash table, whatever they spell
// above WAll or past /32.
func maskOf(m *zof.Match) (mask fieldKey) {
	for i, f := range fieldBits {
		if m.Wildcards&(1<<i) == 0 {
			mask[f.word] |= f.bits
			mask[4] |= f.layer
		}
	}
	mask[3] = uint64(zof.PrefixMask(m.SrcPrefix)) | uint64(zof.PrefixMask(m.DstPrefix))<<32
	if mask[3] != 0 {
		mask[4] |= hasIPv4
	}
	return mask
}

// under writes to out the key k has under mask — the fields it does not
// test zeroed — and returns its hash. A table indexes its buckets by
// the hash's low bits, so every round folds high bits down.
func (k *fieldKey) under(mask, out *fieldKey) (h uint64) {
	for i, w := range k {
		w &= mask[i]
		out[i] = w
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// keyOfMatch is the bucket a rule lives in under its own mask, and the
// bucket's hash. Two spellings of one rule (junk in a wildcarded field,
// host bits below the prefix) get the same key.
func keyOfMatch(m *zof.Match, mask *fieldKey) (k fieldKey, h uint64) {
	raw := fieldKey{
		uint64(m.InPort) | uint64(m.EtherType)<<32 | uint64(m.VLAN)<<48,
		macBits(m.EthSrc) | uint64(m.TPSrc)<<48,
		macBits(m.EthDst) | uint64(m.TPDst)<<48,
		uint64(m.IPSrc.Uint32()) | uint64(m.IPDst.Uint32())<<32,
		uint64(m.IPProto) | hasVLAN | hasIPv4 | hasL4,
	}
	h = raw.under(mask, &k)
	return k, h
}

// keyOfFrame reads a decoded frame's fields in the same layout, once
// per lookup however many masks are probed.
func keyOfFrame(f *packet.Frame, inPort uint32) (k fieldKey) {
	k[0] = uint64(inPort) | uint64(f.EtherType())<<32
	k[1], k[2] = macBits(f.Eth.Src), macBits(f.Eth.Dst)
	if f.Has(packet.LayerVLAN) {
		k[0] |= uint64(f.VLAN.VLAN) << 48
		k[4] |= hasVLAN
	}
	if f.Has(packet.LayerIPv4) {
		k[3] = uint64(f.IPv4.Src.Uint32()) | uint64(f.IPv4.Dst.Uint32())<<32
		k[4] |= uint64(f.IPv4.Protocol) | hasIPv4
	}
	switch {
	case f.Has(packet.LayerTCP):
		k[1] |= uint64(f.TCP.SrcPort) << 48
		k[2] |= uint64(f.TCP.DstPort) << 48
		k[4] |= hasL4
	case f.Has(packet.LayerUDP):
		k[1] |= uint64(f.UDP.SrcPort) << 48
		k[2] |= uint64(f.UDP.DstPort) << 48
		k[4] |= hasL4
	}
	return k
}

// order is the order the table decides ties by: higher priority first,
// earlier install first within a priority. A replacement inherits the
// seq of the entry it replaces, so (Priority, seq) is unique per table.
func order(a, b *Entry) int {
	if a.Priority != b.Priority {
		return int(b.Priority) - int(a.Priority)
	}
	return cmp.Compare(a.seq, b.seq)
}

func before(a, b *Entry) bool { return order(a, b) < 0 }

// leaf is one entry in a shape's hash table. A view of generation g
// sees it when born ≤ g < died (died is 0 while the entry is installed).
// All else is set before the leaf is reachable and no leaf is unlinked,
// so a write changes a chain only by leaves its readers cannot see.
type leaf struct {
	hash uint64
	key  fieldKey
	e    *Entry
	born uint64
	died atomic.Uint64
	next *leaf
}

func (l *leaf) visible(gen uint64) bool {
	d := l.died.Load()
	return l.born <= gen && (d == 0 || gen < d)
}

// shape is one mask shape's hash table: a power-of-two array of
// unordered leaf chains indexed by the low bits of the key's hash. A
// write links a leaf at a chain's head or stamps one dead, in place;
// a crowded shape is rebuilt into a fresh table, and the old one stays
// as it is for the views that hold it. All after buckets is the writer's.
type shape struct {
	buckets []atomic.Pointer[leaf]

	leaves, live int         // leaves in the chains, and how many are installed
	prios        []prioCount // installed entries per priority, highest first

	// A new shape's one bucket and first priority: one allocation.
	bucket0 [1]atomic.Pointer[leaf]
	prio0   [1]prioCount
}

type prioCount struct {
	prio uint16
	n    int
}

func (s *shape) chain(h uint64) *atomic.Pointer[leaf] {
	return &s.buckets[h&uint64(len(s.buckets)-1)]
}

func (s *shape) link(l *leaf) {
	b := s.chain(l.hash)
	l.next = b.Load()
	b.Store(l)
	s.leaves++
}

// count moves the number of installed entries at prio by d.
func (s *shape) count(prio uint16, d int) {
	s.live += d
	i, ok := slices.BinarySearchFunc(s.prios, prio, func(c prioCount, p uint16) int { return cmp.Compare(p, c.prio) })
	switch {
	case !ok:
		s.prios = slices.Insert(s.prios, i, prioCount{prio, d})
	case s.prios[i].n+d == 0:
		s.prios = slices.Delete(s.prios, i, i+1)
	default:
		s.prios[i].n += d
	}
}

// crowded reports whether s is due a rebuild: more leaves than
// buckets, or more dead leaves than live ones.
func (s *shape) crowded() bool { return s.leaves > len(s.buckets) || s.leaves-s.live > s.live }

// rebuilt returns a fresh table of s's installed entries at twice as
// many buckets as entries, their leaves in one slab. s is not changed.
func (s *shape) rebuilt() *shape {
	ns := &shape{buckets: make([]atomic.Pointer[leaf], 1<<bits.Len(uint(2*s.live-1))), live: s.live}
	ns.prios = append(ns.prio0[:0], s.prios...)
	slab := make([]leaf, s.live)
	for i := range s.buckets {
		for l := s.buckets[i].Load(); l != nil; l = l.next {
			if l.died.Load() == 0 {
				nl := &slab[ns.leaves]
				nl.hash, nl.key, nl.e, nl.born = l.hash, l.key, l.e, l.born
				ns.link(nl)
			}
		}
	}
	return ns
}

// installed returns s's installed leaf of hash h with exactly match m
// (raw field equality, not semantic: rule identity is what the
// controller's flow store keys on) and priority prio, or nil.
func (s *shape) installed(h uint64, m *zof.Match, prio uint16) *leaf {
	for l := s.chain(h).Load(); l != nil; l = l.next {
		if l.hash == h && l.e.Priority == prio && l.e.Match == *m && l.died.Load() == 0 {
			return l
		}
	}
	return nil
}

// tuple is one mask shape in a view: its mask, its highest priority at
// the view's generation and its table.
type tuple struct {
	mask fieldKey
	max  uint16
	tab  *shape
}

// classify is the table's one classifier: the entry the priority-ordered
// scan of the rules installed at generation gen would reach first for
// the frame on inPort (highest priority, earliest install among
// equals), or nil. tuples are in descending max order, so once the
// match in hand is strictly above the next tuple's max nothing further
// can win or tie. A chain is unordered, so every leaf of the probe's
// key is weighed. It touches no counter; Lookup, LookupBatch and Peek
// differ only in the accounting they add around it.
func classify(tuples []tuple, gen uint64, f *packet.Frame, inPort uint32) *Entry {
	var best *Entry
	fk := keyOfFrame(f, inPort)
	for i := range tuples {
		tp := &tuples[i]
		if best != nil && best.Priority > tp.max {
			break
		}
		var k fieldKey
		h := fk.under(&tp.mask, &k)
		for l := tp.tab.chain(h).Load(); l != nil; l = l.next {
			if l.hash == h && l.key == k && l.visible(gen) && (best == nil || before(l.e, best)) {
				best = l.e
			}
		}
	}
	return best
}

// entriesAt returns the n entries a view of generation gen over tuples
// holds, in order.
func entriesAt(tuples []tuple, gen uint64, n int) []*Entry {
	out := make([]*Entry, 0, n)
	for _, tp := range tuples {
		for i := range tp.tab.buckets {
			for l := tp.tab.buckets[i].Load(); l != nil; l = l.next {
				if l.visible(gen) {
					out = append(out, l.e)
				}
			}
		}
	}
	slices.SortFunc(out, order)
	return out
}

// locate returns the table of m's shape in tuples, the installed leaf
// of the rule with match m and priority prio (either may be nil) and
// the rule's key and hash.
func locate(tuples []tuple, m *zof.Match, prio uint16) (s *shape, l *leaf, k fieldKey, h uint64) {
	mask := maskOf(m)
	k, h = keyOfMatch(m, &mask)
	for _, tp := range tuples {
		if tp.mask == mask {
			return tp.tab, tp.tab.installed(h, m, prio), k, h
		}
	}
	return nil, nil, k, h
}

// settled returns the tuple list of the writer's state once a write has
// linked and stamped its leaves: each shape's max brought up to date,
// empty shapes dropped, crowded ones rebuilt, in descending max order.
// It is tuples itself when none of that changes anything.
func settled(tuples []tuple) []tuple {
	if !slices.ContainsFunc(tuples, func(tp tuple) bool {
		return tp.tab.live == 0 || tp.max != tp.tab.prios[0].prio || tp.tab.crowded()
	}) {
		return tuples
	}
	out := make([]tuple, 0, len(tuples))
	for _, tp := range tuples {
		if s := tp.tab; s.live > 0 {
			if s.crowded() {
				tp.tab = s.rebuilt()
			}
			tp.max = s.prios[0].prio
			out = append(out, tp)
		}
	}
	slices.SortStableFunc(out, func(a, b tuple) int { return cmp.Compare(b.max, a.max) })
	return out
}
