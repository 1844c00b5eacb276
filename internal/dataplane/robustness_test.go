package dataplane

import (
	"testing"

	"repro/internal/zof"
)

// replyCapture collects the replies a Process call emits.
type replyCapture struct {
	msgs []zof.Message
	xids []uint32
}

func (r *replyCapture) fn(m zof.Message, xid uint32) {
	r.msgs = append(r.msgs, m)
	r.xids = append(r.xids, xid)
}

func (r *replyCapture) lastError(t *testing.T) *zof.Error {
	t.Helper()
	if len(r.msgs) == 0 {
		t.Fatal("no reply emitted")
	}
	e, ok := r.msgs[len(r.msgs)-1].(*zof.Error)
	if !ok {
		t.Fatalf("reply = %T, want *zof.Error", r.msgs[len(r.msgs)-1])
	}
	return e
}

func flowAdd(i int, prio uint16, acts ...zof.Action) *zof.FlowMod {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthDst
	m.EthDst[5] = byte(i)
	return &zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: prio,
		Cookie: uint64(i), BufferID: zof.NoBuffer, Actions: acts}
}

// TestTableDeleteCookieMask pins the two delete commands' cookie
// filter: an entry goes only if its cookie equals the mod's on the
// mask's bits. The all-ones mask names one cookie (the audit's deletes:
// one aimed at a stale entry cannot remove a fresh rule at the same
// match); the owner mask names one app's rules whatever their epoch or
// app bits; mask 0 filters nothing.
func TestTableDeleteCookieMask(t *testing.T) {
	sw, _ := testSwitch(t, Config{})
	var rep replyCapture
	const ownerMask = 0xff << 40
	add := func(i int, prio uint16, cookie uint64) *zof.FlowMod {
		fm := flowAdd(i, prio, zof.Output(2))
		fm.Cookie = cookie
		sw.Process(fm, uint32(i), rep.fn)
		return fm
	}
	del := func(cmd uint8, m zof.Match, prio uint16, cookie, mask uint64) int {
		before := sw.FlowCount()
		sw.Process(&zof.FlowMod{Command: cmd, Match: m, Priority: prio, Cookie: cookie, CookieMask: mask,
			BufferID: zof.NoBuffer}, 99, rep.fn)
		return before - sw.FlowCount()
	}
	a := add(1, 10, 0x0001_01_0000000001)
	b := add(2, 20, 0x0002_02_0000000002)
	if n := del(zof.FlowDelete, zof.MatchAll(), 0, 0x0003_03_0000000003, ^uint64(0)); n != 0 {
		t.Fatalf("wrong-cookie delete removed %d entries", n)
	}
	if n := del(zof.FlowDelete, zof.MatchAll(), 0, a.Cookie, ^uint64(0)); n != 1 || sw.tables[0].Entries()[0].Cookie != b.Cookie {
		t.Fatalf("exact-cookie delete removed %d entries, want exactly a", n)
	}
	// Strict: cookie AND exact match+priority must agree.
	if del(zof.FlowDeleteStrict, b.Match, 99, b.Cookie, ^uint64(0)) != 0 {
		t.Fatal("strict delete ignored priority")
	}
	if del(zof.FlowDeleteStrict, b.Match, 20, 0xdead, ^uint64(0)) != 0 {
		t.Fatal("strict delete ignored cookie")
	}
	if del(zof.FlowDeleteStrict, b.Match, 20, b.Cookie, ^uint64(0)) != 1 || sw.FlowCount() != 0 {
		t.Fatal("strict delete missed its target")
	}
	// Owner mask: owner 2's rules go under any epoch and app bits.
	add(1, 10, 0x0001_01_0000000001)
	add(2, 10, 0x0001_02_0000000007)
	add(3, 20, 0x0005_02_0000000001)
	if n := del(zof.FlowDelete, zof.MatchAll(), 0, 0x02<<40, ownerMask); n != 2 || sw.tables[0].Entries()[0].Cookie>>40&0xff != 1 {
		t.Fatalf("owner delete removed %d entries, want owner 2's two", n)
	}
	if del(zof.FlowDeleteStrict, a.Match, 10, 0x02<<40, ownerMask) != 0 {
		t.Fatal("strict owner delete removed another owner's rule")
	}
	if del(zof.FlowDelete, zof.MatchAll(), 0, 0xdead, 0) != 1 || len(rep.msgs) != 0 {
		t.Fatalf("unfiltered delete left %d flows, replies %v", sw.FlowCount(), rep.msgs)
	}
}

// TestTableCapacityReply: per-table capacity overrides are enforced
// with a table-full Error carrying the offending XID.
func TestTableCapacityReply(t *testing.T) {
	sw, _ := testSwitch(t, Config{TableSizes: []int{2}})
	var rep replyCapture
	sw.Process(flowAdd(1, 10, zof.Output(2)), 101, rep.fn)
	sw.Process(flowAdd(2, 10, zof.Output(2)), 102, rep.fn)
	if len(rep.msgs) != 0 {
		t.Fatalf("unexpected replies: %v", rep.msgs)
	}
	sw.Process(flowAdd(3, 10, zof.Output(2)), 103, rep.fn)
	e := rep.lastError(t)
	if e.Code != zof.ErrCodeTableFull {
		t.Errorf("code = %s, want table-full", zof.ErrCodeName(e.Code))
	}
	if rep.xids[len(rep.xids)-1] != 103 {
		t.Errorf("error xid = %d, want 103", rep.xids[len(rep.xids)-1])
	}
	if sw.FlowCount() != 2 {
		t.Errorf("flows = %d, want 2", sw.FlowCount())
	}
	// Replacing an existing rule does not consume capacity.
	var rep2 replyCapture
	sw.Process(flowAdd(1, 10, zof.Output(3)), 104, rep2.fn)
	if len(rep2.msgs) != 0 {
		t.Errorf("replace rejected: %v", rep2.msgs)
	}
}

// TestTableSizesOverride: TableSizes caps individual tables, and a
// table past its end is unbounded.
func TestTableSizesOverride(t *testing.T) {
	sw, _ := testSwitch(t, Config{NumTables: 2, TableSizes: []int{1}})
	var rep replyCapture
	sw.Process(flowAdd(1, 10, zof.Output(2)), 1, rep.fn)
	sw.Process(flowAdd(2, 10, zof.Output(2)), 2, rep.fn) // table 0 full
	e := rep.lastError(t)
	if e.Code != zof.ErrCodeTableFull {
		t.Fatalf("code = %s", zof.ErrCodeName(e.Code))
	}
	// Table 1 has no cap.
	fm := flowAdd(3, 10, zof.Output(2))
	fm.TableID = 1
	var rep2 replyCapture
	sw.Process(fm, 3, rep2.fn)
	if len(rep2.msgs) != 0 {
		t.Errorf("table 1 rejected: %v", rep2.msgs)
	}
}

// TestBadGroupReferenceRejected: a flow naming an uninstalled group is
// refused with a bad-group Error, for both add and modify.
func TestBadGroupReferenceRejected(t *testing.T) {
	sw, _ := testSwitch(t, Config{})
	var rep replyCapture
	sw.Process(flowAdd(1, 10, zof.Group(99)), 7, rep.fn)
	if e := rep.lastError(t); e.Code != zof.ErrCodeBadGroup {
		t.Errorf("add code = %s, want bad-group", zof.ErrCodeName(e.Code))
	}
	if sw.FlowCount() != 0 {
		t.Error("invalid flow installed")
	}

	// With the group present the same mod is accepted...
	sw.Process(&zof.GroupMod{Command: zof.GroupAdd, GroupType: zof.GroupTypeSelect,
		GroupID: 99, Buckets: []zof.GroupBucket{{Weight: 1, Actions: []zof.Action{zof.Output(2)}}}},
		8, rep.fn)
	var rep2 replyCapture
	sw.Process(flowAdd(1, 10, zof.Group(99)), 9, rep2.fn)
	if len(rep2.msgs) != 0 {
		t.Fatalf("valid group reference rejected: %v", rep2.msgs)
	}
	// ...and a modify pointing at a missing group is refused.
	m := zof.MatchAll()
	var rep3 replyCapture
	sw.Process(&zof.FlowMod{Command: zof.FlowModify, Match: m, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Group(404)}}, 10, rep3.fn)
	if e := rep3.lastError(t); e.Code != zof.ErrCodeBadGroup {
		t.Errorf("modify code = %s, want bad-group", zof.ErrCodeName(e.Code))
	}
}

// TestGroupDeleteCascades: deleting a group removes the flows that
// reference it (OpenFlow group-delete semantics) and emits FlowRemoved
// for each, leaving unrelated flows alone.
func TestGroupDeleteCascades(t *testing.T) {
	sw, _ := testSwitch(t, Config{})
	var removed []zof.Message
	sw.AddControllerSink(func(m zof.Message) {
		if _, ok := m.(*zof.FlowRemoved); ok {
			removed = append(removed, m)
		}
	})
	var rep replyCapture
	sw.Process(&zof.GroupMod{Command: zof.GroupAdd, GroupType: zof.GroupTypeSelect,
		GroupID: 5, Buckets: []zof.GroupBucket{{Weight: 1, Actions: []zof.Action{zof.Output(2)}}}},
		1, rep.fn)
	grouped1 := flowAdd(1, 10, zof.Group(5))
	grouped1.Flags = zof.FlagSendFlowRemoved
	grouped2 := flowAdd(2, 10, zof.Group(5))
	grouped2.Flags = zof.FlagSendFlowRemoved
	sw.Process(grouped1, 2, rep.fn)
	sw.Process(grouped2, 3, rep.fn)
	sw.Process(flowAdd(3, 10, zof.Output(3)), 4, rep.fn)
	if sw.FlowCount() != 3 {
		t.Fatalf("flows = %d", sw.FlowCount())
	}
	sw.Process(&zof.GroupMod{Command: zof.GroupDelete, GroupID: 5}, 5, rep.fn)
	if len(rep.msgs) != 0 {
		t.Fatalf("unexpected replies: %v", rep.msgs)
	}
	if sw.FlowCount() != 1 {
		t.Errorf("flows after cascade = %d, want 1", sw.FlowCount())
	}
	if len(removed) != 2 {
		t.Errorf("FlowRemoved notifications = %d, want 2", len(removed))
	}
	if sw.DeleteGroup(5) {
		t.Error("group survived delete")
	}
}
