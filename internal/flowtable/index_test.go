package flowtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/zof"
)

// find is the classifier the table had before the index, kept as the
// reference: the first entry of a priority-ordered list matching the
// frame on inPort, or nil.
func find(entries []*Entry, f *packet.Frame, inPort uint32) *Entry {
	for _, e := range entries {
		if e.Match.MatchesFrame(f, inPort) {
			return e
		}
	}
	return nil
}

// oracle is the table as it was before the index — one slice in
// descending priority order, stable within a priority — with the
// mutations written the way they were then.
type oracle struct {
	entries []*Entry
	maxSize int
}

func (o *oracle) add(e *Entry, checkOverlap bool) error {
	for i, old := range o.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			o.entries[i] = e
			return nil
		}
	}
	if checkOverlap {
		for _, old := range o.entries {
			if old.Priority == e.Priority && old.Match.Overlaps(&e.Match) {
				return ErrOverlap
			}
		}
	}
	if o.maxSize > 0 && len(o.entries) >= o.maxSize {
		return ErrTableFull
	}
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Priority < e.Priority })
	o.entries = slices.Insert(o.entries, i, e)
	return nil
}

func (o *oracle) deleteIf(pred func(*Entry) bool) []*Entry {
	var removed []*Entry
	o.entries = slices.DeleteFunc(o.entries, func(e *Entry) bool {
		if pred(e) {
			removed = append(removed, e)
			return true
		}
		return false
	})
	return removed
}

// script feeds a schedule from bytes, so the seeded test and the fuzz
// target drive one checker. Past the end it reads zeros.
type script struct {
	data []byte
	i    int
}

func (s *script) next() int {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return int(s.data[s.i-1])
}

// The value universe is small so that rules collide, overlap and match.
var (
	uniMACs   = [4]packet.MAC{packet.MACFromUint64(1), packet.MACFromUint64(2), packet.MACFromUint64(3), packet.MACFromUint64(4)}
	uniVLANs  = [3]uint16{0, 10, 20}
	uniEther  = [2]uint16{packet.EtherTypeIPv4, packet.EtherTypeARP}
	uniProtos = [3]uint8{packet.ProtoUDP, packet.ProtoTCP, packet.ProtoICMP}
	uniPorts  = [3]uint16{53, 80, 443}
	uniPrios  = [4]uint16{5, 5, 7, 9}
)

func uniIP(b int) packet.IPv4Addr {
	return packet.IPv4Addr{10 + byte(b&1), byte(b >> 1 & 1), byte(b >> 2 & 1), [4]byte{1, 2, 129, 200}[b>>3&3]}
}

// shapeTemplates are the mask shapes schedules draw from: which bitmap
// fields a rule specifies and whether it narrows each address. With
// the right prefix lengths 6, 8 and 9 are miss_storm's four shapes and
// its scratch rule.
var shapeTemplates = []struct {
	specified uint32
	src, dst  bool
}{
	0:  {},                                     // match-all
	1:  {specified: zof.WInPort},               // in-port
	2:  {specified: zof.WEthDst},               // MAC
	3:  {specified: zof.WEthSrc | zof.WEthDst}, // MAC pair
	4:  {specified: zof.WVLAN | zof.WEthDst},   // VLAN-pinned
	5:  {specified: zof.WEtherType},            // ethertype
	6:  {specified: zof.WEtherType, dst: true}, // route (/24, /16, scratch /32)
	7:  {specified: zof.WEtherType, dst: true}, // same again: routes are the common case
	8:  {specified: zof.WEtherType | zof.WIPProto, dst: true},
	9:  {specified: zof.WEtherType | zof.WIPProto | zof.WTPDst, dst: true},
	10: {specified: zof.WEtherType, src: true},
	11: {specified: zof.WEtherType, src: true, dst: true},
	12: {specified: zof.WIPProto}, // proto-only
	13: {specified: zof.WTPDst},   // port-only
	14: {specified: zof.WInPort | zof.WIPProto | zof.WTPSrc, dst: true},
	15: {specified: zof.WInPort | zof.WEthSrc | zof.WEthDst | zof.WEtherType | zof.WIPProto | zof.WTPSrc | zof.WTPDst, src: true, dst: true},
	16: {src: true}, // bare prefixes, no ethertype
	17: {specified: zof.WVLAN},
}

// A schedule is: a byte choosing the table's capacity, a byte choosing
// the number of probes, six bytes per probe (scriptedFrame), then one
// opLen-byte record per step. Record byte 0 is the operation (low four
// bits, see checkSchedule) and the rule's timeouts (high four), bytes
// 1-10 the rule the operation is about (scriptedEntry), byte 11 which
// installed rule it aims at, for the operations that aim at one.
const opLen = 12

// scriptedEntry decodes bytes 0-10 of an op record into an entry.
// Byte 10 chooses the spelling: zero writes the rule canonically, any
// other value leaves junk in the wildcarded fields, host bits under the
// prefixes and bits above WAll in Wildcards — a different Match, and so
// a different rule identity, with the same meaning.
func scriptedEntry(rec [opLen]int) *Entry {
	tmpl := shapeTemplates[rec[1]%len(shapeTemplates)]
	junk := rec[10] != 0
	m := zof.Match{Wildcards: zof.WAll &^ tmpl.specified, IPSrc: uniIP(rec[6]), IPDst: uniIP(rec[7])}
	set := func(bit uint32) bool { return junk || tmpl.specified&bit != 0 }
	if set(zof.WInPort) {
		m.InPort = uint32(1 + rec[4]%3)
	}
	if set(zof.WEthSrc) {
		m.EthSrc = uniMACs[rec[4]/3%4]
	}
	if set(zof.WEthDst) {
		m.EthDst = uniMACs[rec[4]/12%4]
	}
	if set(zof.WVLAN) {
		m.VLAN = uniVLANs[rec[5]%3]
	}
	if set(zof.WEtherType) {
		m.EtherType = uniEther[rec[5]/3%2]
	}
	if set(zof.WIPProto) {
		m.IPProto = uniProtos[rec[5]/6%3]
	}
	if set(zof.WTPSrc) {
		m.TPSrc = uniPorts[rec[8]%3]
	}
	if set(zof.WTPDst) {
		m.TPDst = uniPorts[rec[8]/3%3]
	}
	if tmpl.src {
		m.SrcPrefix = scriptedPlen(rec[2])
	}
	if tmpl.dst {
		m.DstPrefix = scriptedPlen(rec[3])
	}
	if junk {
		m.Wildcards |= uint32(rec[10]) << 16
	} else {
		m.IPSrc = packet.IPv4FromUint32(m.IPSrc.Uint32() & zof.PrefixMask(m.SrcPrefix))
		m.IPDst = packet.IPv4FromUint32(m.IPDst.Uint32() & zof.PrefixMask(m.DstPrefix))
	}
	return &Entry{
		Match:    m,
		Priority: uniPrios[rec[9]%4],
		Cookie:   uint64(1 + rec[9]/4%3),
		Actions:  []zof.Action{zof.Output(uint32(1 + rec[8]%4))},
		// A quarter of the rules can expire (the op byte's high bits).
		IdleTimeout: [16]time.Duration{12: 3 * time.Second, 13: 7 * time.Second, 15: 3 * time.Second}[rec[0]/16],
		HardTimeout: [16]time.Duration{14: 5 * time.Second, 15: 11 * time.Second}[rec[0]/16],
	}
}

// scriptedPlen is any length from /0 to /33 (legal in process, and
// meaning /32), the usual ones half the time so that rules share shapes.
func scriptedPlen(b int) uint8 {
	if b < 128 {
		return [8]uint8{8, 16, 24, 32, 24, 32, 0, 33}[b%8]
	}
	return uint8(b % 34)
}

// scriptedFrame decodes a six-byte frame record. The frame is built
// decoded, not parsed, so the layers it lacks can be left holding junk
// the way a reused packet.Frame does.
type probe struct {
	f      packet.Frame
	inPort uint32
	size   uint64
}

func scriptedFrame(s *script) probe {
	b := [6]int{s.next(), s.next(), s.next(), s.next(), s.next(), s.next()}
	p := probe{inPort: uint32(1 + b[0]/6%3), size: uint64(64 + b[5])}
	f := &p.f
	f.Layers = packet.LayerEthernet
	f.Eth.Src, f.Eth.Dst = uniMACs[b[1]%4], uniMACs[b[1]/4%4]
	et := uint16(packet.EtherTypeIPv4)
	if b[0]%6 == 3 {
		et = packet.EtherTypeARP
		f.Layers |= packet.LayerARP
	}
	f.Eth.EtherType, f.VLAN.EtherType, f.VLAN.VLAN = et, et, uniVLANs[b[2]%3]
	if b[1]/16%2 == 1 {
		f.Eth.EtherType = packet.EtherTypeVLAN
		f.Layers |= packet.LayerVLAN
	}
	// Address and port fields are always filled; Layers says which count.
	f.IPv4.Src, f.IPv4.Dst = uniIP(b[3]), uniIP(b[4])
	f.UDP.SrcPort, f.UDP.DstPort = uniPorts[b[5]%3], uniPorts[b[5]/3%3]
	f.TCP.SrcPort, f.TCP.DstPort = f.UDP.DstPort, f.UDP.SrcPort
	if et == packet.EtherTypeIPv4 {
		f.Layers |= packet.LayerIPv4
		switch b[0] % 6 {
		case 1, 5:
			f.IPv4.Protocol = packet.ProtoTCP
			f.Layers |= packet.LayerTCP
		case 2:
			f.IPv4.Protocol = packet.ProtoICMP
			f.Layers |= packet.LayerICMPv4
		default:
			f.IPv4.Protocol = packet.ProtoUDP
			f.Layers |= packet.LayerUDP
		}
	}
	return p
}

// maxScheduleOps bounds one schedule (the fuzzer would otherwise grow
// inputs without limit).
const maxScheduleOps = 700

// coverage counts what the schedules of one test run reached, so the
// test can tell a universe gone too sparse to mean anything.
type coverage struct {
	steps, maxRules, maxShapes    int
	hits, misses, ties, crossTies int // per Peek; ties: another match at the winner's priority (cross: in another shape)
	replaced, respelt, refused    int // Adds: same identity, same bucket under a new identity, ErrOverlap/ErrTableFull
	grown, compacted              int // shape tables rebuilt: more leaves than buckets, more dead leaves than live
}

// heldViews is how many steps' views checkSchedule keeps.
const heldViews = 9

// held is a view some step published and what the oracle said then.
type held struct {
	v       *tableView
	entries []*Entry // the oracle's list
	want    []*Entry // the oracle's answer per probe
}

// checkSchedule runs the schedule in data against a Table and the
// oracle side by side and compares them after every step.
func checkSchedule(t testing.TB, data []byte, cov *coverage) {
	s := &script{data: data}
	o := &oracle{}
	if b := s.next(); b%4 == 3 {
		o.maxSize = 4 + b>>2
	}
	tbl := NewTable(o.maxSize)
	probes := make([]probe, 4+s.next()%28)
	for i := range probes {
		probes[i] = scriptedFrame(s)
	}
	now := t0
	samePtrs := func(what string, got, want []*Entry) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: table has %d entries, oracle %d, or they differ in identity or order", what, len(got), len(want))
		}
	}
	// A view is never changed by a later write. The view from before the
	// step and the one from heldViews-1 steps before that (every view in
	// its turn, one step old and heldViews old) still give the answers
	// the oracle gave then and hold the entries it held.
	views := []held{{v: tbl.view.Load(), want: make([]*Entry, len(probes))}}
	for op := 0; s.i < len(s.data) && op < maxScheduleOps; op++ {
		var rec [opLen]int
		for i := range rec {
			rec[i] = s.next()
		}
		now = now.Add(time.Second)
		e := scriptedEntry(rec)
		var target *Entry // an installed entry, for the ops that aim at one
		if len(o.entries) > 0 {
			target = o.entries[rec[11]%len(o.entries)]
		}
		switch kind := rec[0] % 16; {
		case kind <= 9: // 0-6 a fresh rule, 7 a replacement, 8 a respelling, 9 with the overlap check
			if kind == 7 && target != nil {
				e.Match, e.Priority = target.Match, target.Priority // same identity: takes the target's place
			}
			if kind == 8 && target != nil {
				// The target's rule spelt differently (bits 8..16 sit above
				// WAll): a new identity that shares its bucket.
				e.Match, e.Priority = target.Match, target.Priority
				e.Match.Wildcards ^= uint32(1+rec[10]) << 8
			}
			had := len(o.entries)
			got, want := tbl.Add(e, kind == 9, now), o.add(e, kind == 9)
			if got != want {
				t.Fatalf("op %d Add = %v, oracle %v", op, got, want)
			}
			switch {
			case got != nil:
				cov.refused++
			case len(o.entries) == had:
				cov.replaced++
			case kind == 8 && target != nil:
				cov.respelt++
			}
		case kind == 10:
			actions := []zof.Action{zof.Output(uint32(9 + op))}
			var idx []int
			for i, old := range o.entries {
				if e.Match.Subsumes(&old.Match) {
					idx = append(idx, i)
				}
			}
			if n := tbl.Modify(e.Match, actions, 77); n != len(idx) {
				t.Fatalf("op %d Modify changed %d entries, oracle %d", op, n, len(idx))
			}
			after := tbl.Entries()
			for _, i := range idx {
				old, ne := o.entries[i], after[i]
				if ne == old || ne.Match != old.Match || ne.Priority != old.Priority || ne.Cookie != 77 ||
					&ne.Actions[0] != &actions[0] || ne.Packets() != old.Packets() || ne.Bytes() != old.Bytes() {
					t.Fatalf("op %d Modify: entry %d is not a clone of the old one with the new actions", op, i)
				}
				o.entries[i] = ne
			}
		case kind == 11:
			samePtrs("Delete", tbl.Delete(e.Match), o.deleteIf(func(x *Entry) bool { return e.Match.Subsumes(&x.Match) }))
		case kind == 12:
			m, prio := e.Match, e.Priority
			if target != nil && rec[10]%4 != 0 {
				m, prio = target.Match, target.Priority
			}
			samePtrs("DeleteStrict", tbl.DeleteStrict(m, prio),
				o.deleteIf(func(x *Entry) bool { return x.Priority == prio && x.Match == m }))
		case kind == 13 && target != nil && rec[10]%2 == 0:
			m, prio, cookie := target.Match, target.Priority, uint64(1+rec[10]/2%3)
			samePtrs("DeleteStrictByCookie", tbl.DeleteStrictByCookie(m, prio, cookie),
				o.deleteIf(func(x *Entry) bool { return x.Cookie == cookie && x.Priority == prio && x.Match == m }))
		case kind == 13:
			samePtrs("DeleteByCookie", tbl.DeleteByCookie(e.Match, e.Cookie),
				o.deleteIf(func(x *Entry) bool { return x.Cookie == e.Cookie && e.Match.Subsumes(&x.Match) }))
		case kind == 14:
			pred := func(x *Entry) bool { return x.Actions[0].Port == e.Actions[0].Port && x.Priority == e.Priority }
			samePtrs("DeleteFunc", tbl.DeleteFunc(pred), o.deleteIf(pred))
		default:
			var want []*Entry
			for _, r := range tbl.Sweep(now) {
				if ok, reason := r.Entry.Expired(now); !ok || reason != r.Reason {
					t.Fatalf("op %d Sweep removed an entry that is not expired, or misreported why", op)
				}
				want = append(want, r.Entry)
			}
			samePtrs("Sweep", want, o.deleteIf(func(x *Entry) bool { ok, _ := x.Expired(now); return ok }))
		}

		samePtrs("writer's list", tbl.entries, o.entries)
		samePtrs("Entries()", tbl.Entries(), o.entries)
		if tbl.Len() != len(o.entries) {
			t.Fatalf("op %d Len = %d, oracle %d", op, tbl.Len(), len(o.entries))
		}
		// One tuple per installed shape, each carrying exactly its highest
		// priority (a stale bound would still classify right, only slower),
		// listed highest first.
		shapes := map[fieldKey]uint16{}
		for _, x := range o.entries {
			shapes[maskOf(&x.Match)] = max(shapes[maskOf(&x.Match)], x.Priority)
		}
		if tbl.Shapes() != len(shapes) {
			t.Fatalf("op %d Shapes = %d, oracle %d", op, tbl.Shapes(), len(shapes))
		}
		tuples := tbl.view.Load().tuples
		for i, tp := range tuples {
			if tp.max != shapes[tp.mask] || i > 0 && tuples[i-1].max < tp.max {
				t.Fatalf("op %d tuple %d: max %d after %d, oracle max %d", op, i, tp.max, tuples[max(i, 1)-1].max, shapes[tp.mask])
			}
			if tp.tab.crowded() {
				t.Fatalf("op %d tuple %d: %d leaves (%d live) in %d buckets, left unrebuilt", op, i, tp.tab.leaves, tp.tab.live, len(tp.tab.buckets))
			}
			for _, old := range views[len(views)-1].v.tuples {
				switch {
				case old.mask != tp.mask || old.tab == tp.tab:
				case old.tab.leaves > len(old.tab.buckets):
					cov.grown++
				default:
					cov.compacted++
				}
			}
		}
		for _, h := range []held{views[0], views[len(views)-1]} {
			for i := range probes {
				p := &probes[i]
				if got := classify(h.v.tuples, h.v.gen, &p.f, p.inPort); got != h.want[i] {
					t.Fatalf("op %d: the view of generation %d now gives probe %d %s, it gave %s", op, h.v.gen, i, describe(got), describe(h.want[i]))
				}
			}
			samePtrs(fmt.Sprintf("op %d: the view of generation %d", op, h.v.gen), entriesAt(h.v.tuples, h.v.gen, h.v.n), h.entries)
		}
		cov.steps++
		cov.maxRules, cov.maxShapes = max(cov.maxRules, len(o.entries)), max(cov.maxShapes, len(shapes))
		want := checkLookups(t, tbl, o, probes, rec[11], now, cov)
		views = append(views, held{tbl.view.Load(), slices.Clone(o.entries), want})
		if len(views) > heldViews {
			views = slices.Delete(views, 0, 1)
		}
	}
}

// counters is everything a lookup may move: the table's two totals
// and, per entry in oracle order, packets, bytes and last-used nanos.
type counters struct {
	lookups, matches uint64
	entry            [][3]uint64
}

func snapshot(tbl *Table, entries []*Entry) counters {
	c := counters{tbl.Lookups(), tbl.Matches(), make([][3]uint64, len(entries))}
	for i, e := range entries {
		c.entry[i] = [3]uint64{e.Packets(), e.Bytes(), uint64(e.LastUsed().UnixNano())}
	}
	return c
}

// since returns how far the counts moved from b to a (last-used is a
// timestamp, not a count, and is left out).
func (a counters) since(b counters) counters {
	d := counters{a.lookups - b.lookups, a.matches - b.matches, make([][3]uint64, len(a.entry))}
	for i := range a.entry {
		d.entry[i] = [3]uint64{a.entry[i][0] - b.entry[i][0], a.entry[i][1] - b.entry[i][1]}
	}
	return d
}

// checkLookups compares the three faces of the classifier with the
// oracle for every probe: Peek picks the oracle's entry and moves no
// counter; LookupBatch picks it too and moves entry and table counters
// by exactly what the same requests, a frame at a time through Lookup,
// move them. It returns the oracle's answers.
func checkLookups(t testing.TB, tbl *Table, o *oracle, probes []probe, salt int, now time.Time, cov *coverage) []*Entry {
	t.Helper()
	start := snapshot(tbl, o.entries)
	want := make([]*Entry, len(probes))
	for i := range probes {
		p := &probes[i]
		want[i] = find(o.entries, &p.f, p.inPort)
		if got := tbl.Peek(&p.f, p.inPort); got != want[i] {
			t.Fatalf("probe %d: Peek = %s, oracle %s", i, describe(got), describe(want[i]))
		}
		if want[i] == nil {
			cov.misses++
			continue
		}
		cov.hits++
		for _, e := range o.entries {
			if e != want[i] && e.Priority == want[i].Priority && e.Match.MatchesFrame(&p.f, p.inPort) {
				cov.ties++
				if maskOf(&e.Match) != maskOf(&want[i].Match) {
					cov.crossTies++
				}
				break
			}
		}
	}
	if after := snapshot(tbl, o.entries); !reflect.DeepEqual(after, start) {
		t.Fatalf("Peek moved counters: %+v -> %+v", start, after)
	}
	// The batch API takes one in-port per call: group the probes by it.
	var reqs [4][]BatchLookup
	var idx [4][]int
	for i := range probes {
		p := &probes[i]
		n := uint64(1 + (salt+i)%3)
		reqs[p.inPort] = append(reqs[p.inPort], BatchLookup{Frame: &p.f, Packets: n, Bytes: n * p.size})
		idx[p.inPort] = append(idx[p.inPort], i)
	}
	for inPort := range reqs {
		for j, r := range reqs[inPort] {
			for k := uint64(0); k < r.Packets; k++ {
				if got := tbl.Lookup(r.Frame, uint32(inPort), int(r.Bytes/r.Packets), now); got != want[idx[inPort][j]] {
					t.Fatalf("probe %d: Lookup = %s, oracle %s", idx[inPort][j], describe(got), describe(want[idx[inPort][j]]))
				}
			}
		}
	}
	mid := snapshot(tbl, o.entries)
	for inPort := range reqs {
		tbl.LookupBatch(reqs[inPort], uint32(inPort), now)
		for j, r := range reqs[inPort] {
			if r.Entry != want[idx[inPort][j]] {
				t.Fatalf("probe %d: LookupBatch = %s, oracle %s", idx[inPort][j], describe(r.Entry), describe(want[idx[inPort][j]]))
			}
		}
	}
	single, batch := mid.since(start), snapshot(tbl, o.entries).since(mid)
	if !reflect.DeepEqual(single, batch) {
		t.Fatalf("Lookup moved %+v, LookupBatch %+v", single, batch)
	}
	return want
}

func describe(e *Entry) string {
	if e == nil {
		return "miss"
	}
	return fmt.Sprintf("[prio %d seq %d %v]", e.Priority, e.seq, e.Match)
}

// TestTableIndexMatchesOracle is the differential test the index stands
// on: seeded random schedules of every mutation over rule sets of 1 to
// 600 rules, checked against the ordered-scan oracle after every step.
func TestTableIndexMatchesOracle(t *testing.T) {
	sizes := []int{1, 2, 5, 12, 30, 60, 120, 250, 700}
	var cov coverage
	for seed := 0; seed < 225; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := sizes[seed%len(sizes)]
		if ops == 700 && seed/len(sizes)%3 != 0 {
			ops = 90
		}
		data := make([]byte, 2+31*6+ops*opLen)
		rng.Read(data)
		firstOp := 2 + (4+int(data[1])%28)*6 // past the header and the probe records
		if ops >= 250 {
			// Big tables come from schedules that mostly add, unbounded,
			// rules that do not expire.
			data[0] = 0
			for i := firstOp; i < len(data); i += opLen {
				if rng.Intn(24) > 0 {
					data[i] = byte(rng.Intn(9))
				}
			}
		}
		checkSchedule(t, data, &cov)
	}
	t.Logf("%+v", cov)
	if cov.maxRules < 300 || cov.maxShapes < 12 || cov.hits < cov.steps || cov.misses < cov.steps ||
		cov.ties < 1000 || cov.crossTies < 1000 || cov.replaced < 100 || cov.respelt < 100 || cov.refused < 100 ||
		cov.grown < 1000 || cov.compacted < 100 {
		t.Fatalf("schedules too sparse to test the index: %+v", cov)
	}
}

// FuzzTableIndex drives the same checker from bytes. The corpus under
// testdata/fuzz holds miss_storm's table in miniature — its four mask
// shapes and the scratch /32 rule added and strictly deleted over them —
// and one shape grown through three rebuilds, then compacted and
// emptied by two wildcard deletes.
func FuzzTableIndex(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkSchedule(t, data, new(coverage)) })
}

// TestTableVLANGuard: a rule pinning a VLAN, even VLAN 0, must not
// match untagged frames — the index refuses the probe, as MatchesFrame
// refuses the rule.
func TestTableVLANGuard(t *testing.T) {
	tbl := NewTable(0)
	m := zof.MatchAll()
	m.Wildcards &^= zof.WVLAN
	if err := tbl.Add(&Entry{Match: m, Priority: 9}, false, t0); err != nil {
		t.Fatal(err)
	}
	f := mkFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 1)
	if tbl.Peek(f, 1) != nil {
		t.Error("VLAN rule matched untagged frame")
	}
	f.Layers |= packet.LayerVLAN
	if tbl.Peek(f, 1) == nil {
		t.Error("VLAN 0 rule missed a frame tagged VLAN 0")
	}
}

// TestTableViewAllOrNothing pins the table's RCU contract: a mutation
// that removes several rules is one view swap. Two overlapping rules,
// priority 200 over 100, go in one wildcard Delete while readers spin:
// a reader sees the 200 rule or nothing, never the 100 rule that an
// in-place, rule-at-a-time removal would expose in between.
func TestTableViewAllOrNothing(t *testing.T) {
	tbl := NewTable(0)
	f := mkFrame(t, packet.IPv4Addr{9, 9, 9, 9}, packet.IPv4Addr{10, 1, 2, 3}, 1, 2)
	var stop atomic.Bool
	var sawLow atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if e := tbl.Peek(f, 1); e != nil && e.Priority == 100 {
					sawLow.Add(1)
				}
			}
		}()
	}
	for round := 0; round < 2000; round++ {
		// Installed high first, so no reader can catch the low rule alone
		// on the way in either.
		for _, e := range []*Entry{dstMatch(packet.IPv4Addr{10, 1, 0, 0}, 16, 200), dstMatch(packet.IPv4Addr{10, 0, 0, 0}, 8, 100)} {
			if err := tbl.Add(e, false, t0); err != nil {
				t.Fatal(err)
			}
		}
		if got := tbl.Delete(zof.MatchAll()); len(got) != 2 {
			t.Fatalf("round %d: Delete removed %d entries, want 2", round, len(got))
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := sawLow.Load(); n != 0 {
		t.Fatalf("readers saw the priority-100 rule %d times while the priority-200 rule over it was being removed with it", n)
	}
}

// TestTableHeldViewUnderChurn pins the generation contract under -race:
// readers hold a view and re-probe it while the writer fills one shape
// with 4,096 rules (rebuilding its table as it grows), replaces a third,
// strictly deletes a third and wildcard-deletes the rest. A held view
// must keep every answer and its entry count.
func TestTableHeldViewUnderChurn(t *testing.T) {
	const n = 4096
	tbl := NewTable(0)
	frames := make([]*packet.Frame, 64)
	for i := range frames {
		src := packet.IPv4FromUint32(uint32(0x10000 + i*n/len(frames)))
		frames[i] = mkFrame(t, src, packet.IPv4FromUint32(0xb), 1, 2) // macPairRules' MACs
	}
	var stop atomic.Bool
	var overlapped atomic.Int64 // held views re-probed after a later write
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := make([]*Entry, len(frames))
			for !stop.Load() {
				v := tbl.view.Load()
				for i, f := range frames {
					want[i] = classify(v.tuples, v.gen, f, 1)
					if want[i] != nil && want[i].Match.EthSrc != f.Eth.Src {
						t.Errorf("generation %d gives frame %d the rule for %v", v.gen, i, want[i].Match.EthSrc)
						return
					}
				}
				for range 8 {
					runtime.Gosched()
					for i, f := range frames {
						if got := classify(v.tuples, v.gen, f, 1); got != want[i] {
							t.Errorf("generation %d gave frame %d %s, now %s", v.gen, i, describe(want[i]), describe(got))
							return
						}
					}
				}
				if got := len(entriesAt(v.tuples, v.gen, v.n)); got != v.n {
					t.Errorf("generation %d holds %d entries, now %d", v.gen, v.n, got)
					return
				}
				if tbl.Gen() > v.gen {
					overlapped.Add(1)
				}
			}
		}()
	}
	for round := 0; round < 2; round++ {
		rules, dst := macPairRules(n)
		fill(t, tbl, rules)
		for i := 0; i < n; i += 3 {
			e := &Entry{Match: rules[i].Match, Priority: rules[i].Priority, Actions: []zof.Action{zof.Output(3)}}
			if err := tbl.Add(e, false, t0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i += 3 {
			if got := tbl.DeleteStrict(rules[i].Match, rules[i].Priority); len(got) != 1 {
				t.Fatalf("round %d: DeleteStrict of rule %d removed %d", round, i, len(got))
			}
		}
		if got := tbl.Delete(dst); len(got) != n-n/3 || tbl.Len() != 0 {
			t.Fatalf("round %d: Delete removed %d of %d, left %d", round, len(got), n-n/3, tbl.Len())
		}
	}
	stop.Store(true)
	wg.Wait()
	if overlapped.Load() == 0 {
		t.Fatal("no reader held a view across a write")
	}
}
