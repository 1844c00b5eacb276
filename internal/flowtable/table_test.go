package flowtable

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/zof"
)

var t0 = time.Unix(1000, 0)

// mkFrame builds a decoded UDP frame with the given addressing.
func mkFrame(t testing.TB, src, dst packet.IPv4Addr, sp, dp uint16) *packet.Frame {
	t.Helper()
	b := packet.NewBuffer(64)
	udp := packet.UDP{SrcPort: sp, DstPort: dp}
	udp.SerializeTo(b)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ip.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.MACFromUint64(uint64(dst.Uint32())),
		Src:       packet.MACFromUint64(uint64(src.Uint32())),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(b)
	var f packet.Frame
	if err := packet.Decode(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func dstMatch(dst packet.IPv4Addr, plen uint8, prio uint16) *Entry {
	m := zof.MatchAll()
	m.IPDst = dst
	m.DstPrefix = plen
	return &Entry{Match: m, Priority: prio, Actions: []zof.Action{zof.Output(1)}}
}

func TestTablePriorityOrder(t *testing.T) {
	tbl := NewTable(0)
	lo := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	hi := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 100)
	if err := tbl.Add(lo, false, t0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(hi, false, t0); err != nil {
		t.Fatal(err)
	}
	f := mkFrame(t, packet.IPv4Addr{9, 9, 9, 9}, packet.IPv4Addr{10, 1, 2, 3}, 1, 2)
	got := tbl.Lookup(f, 1, 100, t0)
	if got != hi {
		t.Fatalf("lookup returned prio %d, want 100", got.Priority)
	}
	// Frame outside 10.1/16 falls to the /8 rule.
	f2 := mkFrame(t, packet.IPv4Addr{9, 9, 9, 9}, packet.IPv4Addr{10, 2, 2, 3}, 1, 2)
	if got := tbl.Lookup(f2, 1, 100, t0); got != lo {
		t.Fatalf("lookup = %v, want lo", got)
	}
	if tbl.Lookups() != 2 || tbl.Matches() != 2 {
		t.Errorf("stats = %d/%d", tbl.Lookups(), tbl.Matches())
	}
}

func TestTableAddReplacesIdentical(t *testing.T) {
	tbl := NewTable(0)
	a := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	a.TouchN(t0, 1, 100) // counters reset on replacement
	if err := tbl.Add(a, false, t0); err != nil {
		t.Fatal(err)
	}
	b := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	b.Actions = []zof.Action{zof.Output(7)}
	if err := tbl.Add(b, false, t0); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if tbl.Entries()[0] != b {
		t.Error("replacement did not take")
	}
}

func TestTableOverlapCheck(t *testing.T) {
	tbl := NewTable(0)
	wide := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	narrow := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 10)
	if err := tbl.Add(wide, false, t0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(narrow, true, t0); err != ErrOverlap {
		t.Fatalf("err = %v, want ErrOverlap", err)
	}
	// Different priority does not overlap.
	narrow.Priority = 11
	if err := tbl.Add(narrow, true, t0); err != nil {
		t.Fatalf("err = %v", err)
	}
	// Neither subsumes the other, yet a frame for 10.x arriving on port 1
	// satisfies both: that is an overlap.
	inPort := zof.MatchAll()
	inPort.Wildcards &^= zof.WInPort
	inPort.InPort = 1
	if err := tbl.Add(&Entry{Match: inPort, Priority: 10}, true, t0); err != ErrOverlap {
		t.Fatalf("in_port=1 against ip_dst=10.0.0.0/8 at equal priority: err = %v, want ErrOverlap", err)
	}
	// Disjoint in a field both specify: no overlap.
	other := dstMatch(packet.IPv4Addr{11, 0, 0, 0}, 8, 10)
	if err := tbl.Add(other, true, t0); err != nil {
		t.Fatalf("11/8 against 10/8: err = %v", err)
	}
}

func TestTableFull(t *testing.T) {
	tbl := NewTable(2)
	for i := 0; i < 2; i++ {
		if err := tbl.Add(dstMatch(packet.IPv4Addr{10, byte(i), 0, 0}, 16, 5), false, t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Add(dstMatch(packet.IPv4Addr{10, 7, 0, 0}, 16, 5), false, t0); err != ErrTableFull {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	// Replacing an existing entry still works at capacity.
	if err := tbl.Add(dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 5), false, t0); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
}

func TestTableModify(t *testing.T) {
	tbl := NewTable(0)
	e := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 10)
	if err := tbl.Add(e, false, t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.TouchN(t0, 1, 1)
	}
	m := zof.MatchAll()
	m.IPDst = packet.IPv4Addr{10, 0, 0, 0}
	m.DstPrefix = 8
	n := tbl.Modify(m, []zof.Action{zof.Output(9)}, 77)
	if n != 1 {
		t.Fatalf("modified %d", n)
	}
	// Modify is copy-on-write: the table now holds a replacement entry
	// with the new actions and the preserved counters, while the old
	// entry (still visible to in-flight readers) is untouched.
	ne := tbl.Entries()[0]
	if ne.Actions[0].Port != 9 || ne.Cookie != 77 || ne.Packets() != 3 {
		t.Errorf("entry after modify = %+v", ne)
	}
	if e.Actions[0].Port == 9 {
		t.Error("modify mutated the live entry in place")
	}
	// Narrower modify match does not subsume the /16 rule's full range.
	m.DstPrefix = 24
	if n := tbl.Modify(m, nil, 0); n != 0 {
		t.Errorf("narrow modify touched %d entries", n)
	}
}

func TestTableDelete(t *testing.T) {
	tbl := NewTable(0)
	e1 := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 10)
	e2 := dstMatch(packet.IPv4Addr{10, 2, 0, 0}, 16, 20)
	e3 := dstMatch(packet.IPv4Addr{192, 168, 0, 0}, 16, 30)
	for _, e := range []*Entry{e1, e2, e3} {
		if err := tbl.Add(e, false, t0); err != nil {
			t.Fatal(err)
		}
	}
	m := zof.MatchAll()
	m.IPDst = packet.IPv4Addr{10, 0, 0, 0}
	m.DstPrefix = 8
	removed := tbl.Delete(m)
	if len(removed) != 2 || tbl.Len() != 1 {
		t.Fatalf("removed %d, remaining %d", len(removed), tbl.Len())
	}
	// Strict delete needs exact match AND priority.
	if got := tbl.DeleteStrict(e3.Match, 999); len(got) != 0 {
		t.Error("strict delete with wrong priority removed something")
	}
	if got := tbl.DeleteStrict(e3.Match, 30); len(got) != 1 || tbl.Len() != 0 {
		t.Errorf("strict delete failed: %v, len %d", got, tbl.Len())
	}
}

func TestTableSweep(t *testing.T) {
	tbl := NewTable(0)
	idle := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 1)
	idle.IdleTimeout = 10 * time.Second
	hard := dstMatch(packet.IPv4Addr{10, 2, 0, 0}, 16, 2)
	hard.HardTimeout = 30 * time.Second
	forever := dstMatch(packet.IPv4Addr{10, 3, 0, 0}, 16, 3)
	for _, e := range []*Entry{idle, hard, forever} {
		if err := tbl.Add(e, false, t0); err != nil {
			t.Fatal(err)
		}
	}
	// Traffic at t0+5s keeps the idle entry alive.
	f := mkFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 1, 0, 5}, 1, 1)
	if tbl.Lookup(f, 1, 60, t0.Add(5*time.Second)) != idle {
		t.Fatal("expected idle entry hit")
	}
	if got := tbl.Sweep(t0.Add(12 * time.Second)); len(got) != 0 {
		t.Fatalf("swept %d at 12s, want 0", len(got))
	}
	// At t0+16s the idle entry has been quiet 11s -> expires.
	got := tbl.Sweep(t0.Add(16 * time.Second))
	if len(got) != 1 || got[0].Entry != idle || got[0].Reason != zof.RemovedIdleTimeout {
		t.Fatalf("sweep @16s = %+v", got)
	}
	// At t0+31s the hard entry expires regardless of use.
	if tbl.Lookup(f, 1, 60, t0.Add(29*time.Second)) != nil {
		// frame is 10.1/16 so no match remains; just exercising lookup-miss path
		t.Fatal("unexpected match")
	}
	got = tbl.Sweep(t0.Add(31 * time.Second))
	if len(got) != 1 || got[0].Entry != hard || got[0].Reason != zof.RemovedHardTimeout {
		t.Fatalf("sweep @31s = %+v", got)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d, want 1 (forever)", tbl.Len())
	}
	// After sweeps, no expired entries remain.
	for _, e := range tbl.Entries() {
		if ok, _ := e.Expired(t0.Add(31 * time.Second)); ok {
			t.Error("expired entry survived sweep")
		}
	}
}

func TestTableCountersMonotone(t *testing.T) {
	tbl := NewTable(0)
	e := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 1)
	if err := tbl.Add(e, false, t0); err != nil {
		t.Fatal(err)
	}
	f := mkFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 1, 0, 5}, 1, 1)
	var lastP, lastB uint64
	for i := 1; i <= 10; i++ {
		tbl.Lookup(f, 1, 100, t0.Add(time.Duration(i)*time.Second))
		if e.Packets() <= lastP || e.Bytes() <= lastB {
			t.Fatalf("counters not monotone at %d: %d/%d", i, e.Packets(), e.Bytes())
		}
		lastP, lastB = e.Packets(), e.Bytes()
	}
	if e.Packets() != 10 || e.Bytes() != 1000 {
		t.Errorf("counters = %d/%d", e.Packets(), e.Bytes())
	}
}

func TestMicroCache(t *testing.T) {
	tbl := NewTable(0)
	e := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 1)
	if err := tbl.Add(e, false, t0); err != nil {
		t.Fatal(err)
	}
	cache := NewMicroCache(128)
	f := mkFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 1, 0, 5}, 9, 9)
	key := MakeCacheKey(f, 3)

	if _, ok := cache.Get(key, tbl.Gen()); ok {
		t.Fatal("cold cache hit")
	}
	hit := tbl.Lookup(f, 3, 60, t0)
	cache.Put(key, tbl.Gen(), hit)
	got, ok := cache.Get(key, tbl.Gen())
	if !ok || got != e {
		t.Fatalf("cache get = %v %v", got, ok)
	}
	// Mutating the table invalidates.
	if err := tbl.Add(dstMatch(packet.IPv4Addr{11, 0, 0, 0}, 8, 1), false, t0); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key, tbl.Gen()); ok {
		t.Fatal("stale cache hit after table mutation")
	}
	// Cached definite miss.
	cache.Put(key, tbl.Gen(), nil)
	got, ok = cache.Get(key, tbl.Gen())
	if !ok || got != nil {
		t.Fatal("cached miss not returned")
	}
	// Eviction keeps the cache bounded.
	for i := 0; i < 2000; i++ {
		k := key
		k.InPort = uint32(i + 10)
		cache.Put(k, tbl.Gen(), nil)
	}
	if cache.Len() > 128 {
		t.Errorf("cache len = %d, want <= 128", cache.Len())
	}
	if cache.Hits() == 0 || cache.Misses() == 0 {
		t.Errorf("hit/miss counters = %d/%d", cache.Hits(), cache.Misses())
	}
}

// TestCacheKeyHashCoversEveryField changes one field of the microflow
// key at a time and demands the hash move — and, because the L2 words
// are folded in after the flow hash's finalizer, that keys differing
// only in one L2 field, or counting up in one flow field, still spread
// like a uniform hash over the burst
// grouping table (low 7 bits) and, for the fields that vary inside one
// port's cache, the widest set index it reaches (65,536 ways in sets of
// four: low 14) and the ways an eviction picks from (top 2).
func TestCacheKeyHashCoversEveryField(t *testing.T) {
	base := MakeCacheKey(mkFrame(t, packet.IPv4Addr{10, 1, 2, 3}, packet.IPv4Addr{172, 16, 4, 5}, 4242, 53), 7)
	edits := map[string]func(k *CacheKey, x uint32){
		"Flow":   func(k *CacheKey, x uint32) { k.Flow.VLAN ^= uint16(x) },
		"InPort": func(k *CacheKey, x uint32) { k.InPort ^= x },
	}
	for i := range base.EthSrc {
		i := i
		edits[fmt.Sprintf("EthSrc[%d]", i)] = func(k *CacheKey, x uint32) { k.EthSrc[i] ^= byte(x) }
		edits[fmt.Sprintf("EthDst[%d]", i)] = func(k *CacheKey, x uint32) { k.EthDst[i] ^= byte(x) }
	}
	if want := reflect.TypeOf(base).NumField() + 2*(len(base.EthSrc)-1); len(edits) != want {
		t.Fatalf("%d edits for %d fields: CacheKey grew a field this test does not flip", len(edits), want)
	}
	for name, edit := range edits {
		for _, x := range []uint32{0x01, 0x80, 0xff, 0x01010101, 0x80808080} {
			k := base
			if edit(&k, x); k.Hash() == base.Hash() {
				t.Errorf("%s ^ %#x leaves the hash unchanged", name, x)
			}
		}
	}

	const n = 16384
	vary := map[string]func(k *CacheKey, i int){
		"InPort":      func(k *CacheKey, i int) { k.InPort = uint32(i) },
		"InPort high": func(k *CacheKey, i int) { k.InPort = uint32(i) << 16 },
		"EthSrc":      func(k *CacheKey, i int) { k.EthSrc = packet.MACFromUint64(uint64(i)) },
		"EthSrc OUI":  func(k *CacheKey, i int) { k.EthSrc = packet.MACFromUint64(uint64(i) << 32) },
		"EthDst":      func(k *CacheKey, i int) { k.EthDst = packet.MACFromUint64(uint64(i)) },
		"EthDst OUI":  func(k *CacheKey, i int) { k.EthDst = packet.MACFromUint64(uint64(i) << 32) },
		"Flow.SrcIP":  func(k *CacheKey, i int) { k.Flow.SrcIP[2], k.Flow.SrcIP[3] = byte(i>>8), byte(i) },
		"Flow.DstIP":  func(k *CacheKey, i int) { k.Flow.DstIP[2], k.Flow.DstIP[3] = byte(i>>8), byte(i) },
		"Flow ports":  func(k *CacheKey, i int) { k.Flow.SrcPort, k.Flow.DstPort = uint16(1024+i), uint16(i>>12) },
	}
	for name, set := range vary {
		hashes := make([]uint64, n)
		for i := range hashes {
			k := base
			set(&k, i)
			hashes[i] = k.Hash()
		}
		for what, index := range map[string]func(h uint64) uint64{
			"low 7 bits":  func(h uint64) uint64 { return h & (1<<7 - 1) },
			"low 14 bits": func(h uint64) uint64 { return h & (1<<14 - 1) },
			"top 2 bits":  func(h uint64) uint64 { return h >> 62 },
		} {
			if strings.HasPrefix(name, "InPort") && what != "low 7 bits" {
				continue // a cache belongs to one ingress port
			}
			load := map[uint64]int{}
			for _, h := range hashes {
				load[index(h)]++
			}
			// Uniform throwing fills B(1-(1-1/B)^n) of B buckets; where the
			// mean load is high, no bucket strays 1.5× from it either.
			buckets := float64(index(^uint64(0)) + 1)
			if want := buckets * (1 - math.Pow(1-1/buckets, n)); float64(len(load)) < 0.95*want {
				t.Errorf("sequential %s, %s: %d buckets occupied, uniform expects %.0f", name, what, len(load), want)
			}
			for b, c := range load {
				if mean := n / buckets; mean >= 100 && (float64(c) < mean/1.5 || float64(c) > 1.5*mean) {
					t.Errorf("sequential %s, %s: bucket %d holds %d keys, mean %.0f", name, what, b, c, mean)
					break
				}
			}
		}
	}
}

// TestDeleteByCookie pins the cookie-filtered delete semantics the
// post-reconnect reconciler depends on: deletes remove only entries
// whose cookie matches exactly, so a delete aimed at a stale session's
// entry cannot remove a fresh entry that replaced it under the same
// match and priority.
func TestDeleteByCookie(t *testing.T) {
	tbl := NewTable(0)
	a := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	a.Cookie = 0x0001_000000000001
	b := dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 20)
	b.Cookie = 0x0002_000000000002
	for _, e := range []*Entry{a, b} {
		if err := tbl.Add(e, false, t0); err != nil {
			t.Fatal(err)
		}
	}
	// Wrong cookie: nothing removed even though the match subsumes all.
	if got := tbl.DeleteByCookie(zof.MatchAll(), 0x0003_000000000003); len(got) != 0 {
		t.Fatalf("wrong-cookie delete removed %d entries", len(got))
	}
	if got := tbl.DeleteByCookie(zof.MatchAll(), a.Cookie); len(got) != 1 || got[0] != a {
		t.Fatalf("cookie delete removed %v, want exactly a", got)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d, want 1", tbl.Len())
	}

	// Strict variant: cookie AND exact match+priority must agree.
	if got := tbl.DeleteStrictByCookie(b.Match, 99, b.Cookie); len(got) != 0 {
		t.Fatal("strict delete ignored priority")
	}
	if got := tbl.DeleteStrictByCookie(b.Match, 20, 0xdead); len(got) != 0 {
		t.Fatal("strict delete ignored cookie")
	}
	if got := tbl.DeleteStrictByCookie(b.Match, 20, b.Cookie); len(got) != 1 {
		t.Fatal("strict delete missed its target")
	}
	if tbl.Len() != 0 {
		t.Fatalf("len = %d, want 0", tbl.Len())
	}
}

// TestAddReplacementDefeatsStaleStrictDelete demonstrates why the
// reconciler needs the cookie filter: Add replaces an entry with the
// same match+priority, and a plain strict delete aimed at the old
// entry would kill the replacement.
func TestAddReplacementDefeatsStaleStrictDelete(t *testing.T) {
	tbl := NewTable(0)
	old := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	old.Cookie = 0x0001_000000000005
	if err := tbl.Add(old, false, t0); err != nil {
		t.Fatal(err)
	}
	fresh := dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 10)
	fresh.Cookie = 0x0002_000000000005
	if err := tbl.Add(fresh, false, t0); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("replacement kept %d entries, want 1", tbl.Len())
	}
	// The reconciler's cookie-filtered strict delete, aimed at the old
	// session's cookie, must be a no-op against the replacement.
	if got := tbl.DeleteStrictByCookie(old.Match, 10, old.Cookie); len(got) != 0 {
		t.Fatal("cookie-filtered delete removed the fresh replacement")
	}
	if tbl.Len() != 1 {
		t.Fatal("fresh entry lost")
	}
}
