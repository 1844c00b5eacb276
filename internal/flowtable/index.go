package flowtable

import (
	"cmp"
	"slices"

	"repro/internal/packet"
	"repro/internal/zof"
)

// The table's classifier is a priority-aware tuple space search
// (Srinivasan et al.; the staged exit is Open vSwitch's): all rules
// sharing a mask shape live in one hash table keyed by the masked field
// values, a lookup probes the shapes in descending order of their
// highest priority and stops once nothing left can beat what it holds.
// Cost is O(shapes), not O(rules). Every structure below is persistent:
// a write copies the path it touches and shares the rest with the view
// readers may still be walking.

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
// test zeroed — and returns its hash. The trie consumes the hash four
// bits a level from the low end, so every round folds high bits down.
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
	return cmp.Or(cmp.Compare(b.Priority, a.Priority), cmp.Compare(a.seq, b.seq))
}

func before(a, b *Entry) bool { return order(a, b) < 0 }

// leaf is one entry in a tuple's hash table. A list of leaves holds
// every entry whose key hashes to the same 64 bits, in before order:
// the entries sharing one masked key (same rule respelt, or equal
// matches at distinct priorities) and, should they ever occur, full
// hash collisions. The first leaf with the probe's key is its winner.
type leaf struct {
	hash uint64
	key  fieldKey
	e    *Entry
	next *leaf
}

func (l *leaf) without(e *Entry) *leaf {
	if l == nil {
		return nil
	}
	if l.e == e {
		return l.next
	}
	c := *l
	c.next = l.next.without(e)
	return &c
}

func (l *leaf) with(n *leaf) *leaf {
	if l == nil || before(n.e, l.e) {
		n.next = l
		return n
	}
	c := *l
	c.next = l.next.with(n)
	return &c
}

// A tuple's hash table is a hash trie of fixed fan-out: a branch
// consumes trieBits of the hash per level and a slot holds either a
// deeper branch or the leaf list of one hash. No resizing, no
// rehashing; a write copies one branch per level (path copying).
const (
	trieBits = 4
	trieFan  = 1 << trieBits
)

type slot struct {
	sub  *branch
	leaf *leaf
}

type branch struct {
	slots [trieFan]slot
	max   uint16 // highest priority below this branch
}

// list returns the leaf list that would hold hash h: the one list on
// h's path, which may belong to another hash. Nil-safe.
func (b *branch) list(h uint64) *leaf {
	for s := h; b != nil; s >>= trieBits {
		sl := &b.slots[s&(trieFan-1)]
		if sl.leaf != nil {
			return sl.leaf
		}
		b = sl.sub
	}
	return nil
}

// put returns a copy of b (nil: an empty branch) at depth shift in which
// old's leaf is gone (old != nil) and e has one (e != nil), or nil if
// that leaves the branch empty. old and e share hash h and key k.
func (b *branch) put(h uint64, shift uint, k *fieldKey, old, e *Entry) *branch {
	nb := &branch{}
	if b != nil {
		*nb = *b
	}
	sl := &nb.slots[(h>>shift)&(trieFan-1)]
	if sl.leaf != nil && sl.leaf.hash != h && e != nil {
		// Another hash owns the slot: move its list one level down and
		// descend after it; the two part ways within 64/trieBits levels.
		down := &branch{max: sl.leaf.e.Priority}
		down.slots[(sl.leaf.hash>>(shift+trieBits))&(trieFan-1)].leaf = sl.leaf
		*sl = slot{sub: down}
	}
	if sl.sub != nil {
		sl.sub = sl.sub.put(h, shift+trieBits, k, old, e)
	} else {
		if old != nil {
			sl.leaf = sl.leaf.without(old)
		}
		if e != nil {
			sl.leaf = sl.leaf.with(&leaf{hash: h, key: *k, e: e})
		}
	}
	if e != nil {
		nb.max = max(nb.max, e.Priority)
		return nb
	}
	// A removal may have taken the branch's highest priority, or its
	// last entry: ask the slots.
	var any bool
	nb.max = 0
	for i := range nb.slots {
		switch s := &nb.slots[i]; {
		case s.leaf != nil: // the list's head is its highest
			nb.max, any = max(nb.max, s.leaf.e.Priority), true
		case s.sub != nil:
			nb.max, any = max(nb.max, s.sub.max), true
		}
	}
	if !any {
		return nil
	}
	return nb
}

// appendAll appends every entry below b to out, in trie order.
func (b *branch) appendAll(out []*Entry) []*Entry {
	for i := range b.slots {
		for l := b.slots[i].leaf; l != nil; l = l.next {
			out = append(out, l.e)
		}
		if sub := b.slots[i].sub; sub != nil {
			out = sub.appendAll(out)
		}
	}
	return out
}

// tuple is one mask shape's hash table and the highest priority in it.
type tuple struct {
	mask fieldKey
	root *branch
	max  uint16
}

// classify is the table's one classifier: the entry the priority-ordered
// scan of the installed rules would reach first for the frame on inPort
// (highest priority, earliest install among equals), or nil. tuples are
// in descending max order, so once the match in hand is strictly above
// the next tuple's max nothing further can win or tie. It touches no
// counter; Lookup, LookupBatch and Peek differ only in the accounting
// they add around it.
func classify(tuples []tuple, f *packet.Frame, inPort uint32) *Entry {
	var best *Entry
	fk := keyOfFrame(f, inPort)
	for i := range tuples {
		tp := &tuples[i]
		if best != nil && best.Priority > tp.max {
			break
		}
		var k fieldKey
		h := fk.under(&tp.mask, &k)
		for l := tp.root.list(h); l != nil; l = l.next {
			if l.hash == h && l.key == k {
				if best == nil || before(l.e, best) {
					best = l.e
				}
				break
			}
		}
	}
	return best
}

// identical returns the installed entry with exactly match m (raw field
// equality, not semantic: rule identity is what the controller's flow
// store keys on) and priority, or nil.
func identical(tuples []tuple, m *zof.Match, priority uint16) *Entry {
	mask := maskOf(m)
	for i := range tuples {
		if tuples[i].mask != mask {
			continue
		}
		_, h := keyOfMatch(m, &mask)
		for l := tuples[i].root.list(h); l != nil; l = l.next {
			if l.e.Priority == priority && l.e.Match == *m {
				return l.e
			}
		}
		break
	}
	return nil
}

// edited returns tuples with old's leaf removed (old != nil) and e given
// one (e != nil); when both are set e takes old's place, and they must
// share a match. Only the tuple list and one trie path are copied.
func edited(tuples []tuple, old, e *Entry) []tuple {
	m := old
	if m == nil {
		m = e
	}
	tp := tuple{mask: maskOf(&m.Match)}
	out := make([]tuple, 0, len(tuples)+1)
	for _, x := range tuples {
		if x.mask == tp.mask {
			tp = x
		} else {
			out = append(out, x)
		}
	}
	k, h := keyOfMatch(&m.Match, &tp.mask)
	if tp.root = tp.root.put(h, 0, &k, old, e); tp.root == nil {
		return out
	}
	tp.max = tp.root.max
	i, _ := slices.BinarySearchFunc(out, tp.max, func(x tuple, max uint16) int { return int(max) - int(x.max) })
	return slices.Insert(out, i, tp)
}
