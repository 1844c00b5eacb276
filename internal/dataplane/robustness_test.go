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
