package controller

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/topo"
	"repro/internal/zof"
)

// undoMatches are the matches the undo checker draws keys from, chosen
// so that deletes and modifies subsume one another: the wildcard, two
// destinations, and the first destination narrowed to either of two
// in-ports.
var undoMatches = func() []zof.Match {
	dst := func(b byte) zof.Match {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthDst
		m.EthDst = [6]byte{2, 0, 0, 0, 0, b}
		return m
	}
	port := func(p uint32) zof.Match {
		m := dst(1)
		m.Wildcards &^= zof.WInPort
		m.InPort = p
		return m
	}
	return []zof.Match{zof.MatchAll(), dst(1), dst(2), port(1), port(2)}
}()

// undoKey is key i of the checker's 20: two tables, five matches, two
// priorities.
func undoKey(i byte) FlowKey {
	return FlowKey{TableID: i % 2, Match: undoMatches[int(i/2)%len(undoMatches)], Priority: 10 + 10*uint16(i/10%2)}
}

// undoFlow derives a rule from b: one of four app cookies under one of
// four owners, and an output to one of two ports or a group from groups.
func undoFlow(b byte, groups []uint32) IntendedFlow {
	f := IntendedFlow{Cookie: OwnerCookie(b>>6, 1+uint64(b&3)), Actions: []zof.Action{zof.Output(1 + uint32(b>>2&1))}}
	if b&8 != 0 && len(groups) > 0 {
		f.Actions = []zof.Action{zof.Group(groups[int(b>>4)%len(groups)])}
	}
	return f
}

// drawnMask is the cookie mask sel draws for a delete: none, the exact
// cookie, the owner field, or b's bits spread over every byte.
func drawnMask(sel, b byte) uint64 {
	return [4]uint64{0, ^uint64(0), CookieOwnerMask, uint64(b) * 0x0101_0101_0101_0101}[sel&3]
}

// undoGroup derives one of four group contents from b.
func undoGroup(b byte) IntendedGroup {
	g := IntendedGroup{GroupType: zof.GroupTypeSelect,
		Buckets: []zof.GroupBucket{{Weight: 1, Actions: []zof.Action{zof.Output(1 + uint32(b&1))}}}}
	if b&2 != 0 {
		g.GroupType = zof.GroupTypeAll
	}
	return g
}

// undoCoverage says what a set of chains exercised.
type undoCoverage struct {
	chains, emptyUndos, cascades, filterMisses                int
	flowDels, groupDels, groupAdds, groupModifies, flowReadds int
}

// checkTxnUndo builds a consistent pre-state and a chain of ops from
// data and requires that applying the ops and then the store's undo of
// them gives back the pre-state, flows and groups. data[0]'s low four
// bits name the groups 1–4 that exist and data[1] how many flows are
// installed, two bytes each (a key and a rule); every flow that names
// a group names one of those. Three bytes then make an op: a kind (bits
// 4–5 draw a flow command's cookie mask), a key or group, and the rule
// or contents. Along the way every undo message must change the
// state it is applied to, and no re-add may name a group that is not
// there yet: the switch refuses such a FlowAdd.
func checkTxnUndo(t testing.TB, data []byte, cov *undoCoverage) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	pre := newStoreState()
	var gids []uint32
	for id := uint32(1); id <= 4; id++ {
		if data[0]>>(id-1)&1 != 0 {
			pre.groups[id] = undoGroup(data[0] >> 4 >> (id % 2))
			gids = append(gids, id)
		}
	}
	rec := data[2:]
	for n := int(data[1]) % 12; n > 0 && len(rec) >= 2; n, rec = n-1, rec[2:] {
		pre.flows[undoKey(rec[0])] = undoFlow(rec[1], gids)
	}
	var ops []zof.Message
	for ; len(rec) >= 3; rec = rec[3:] {
		k, f := undoKey(rec[1]), undoFlow(rec[2], []uint32{1, 2, 3, 4, 5})
		fm := &zof.FlowMod{TableID: k.TableID, Match: k.Match, Priority: k.Priority,
			Cookie: f.Cookie, CookieMask: drawnMask(rec[0]>>4, rec[2]), Actions: f.Actions, BufferID: zof.NoBuffer}
		gid := 1 + uint32(rec[1]%5)
		g := undoGroup(rec[2])
		switch rec[0] % 7 {
		case 0:
			fm.Command = zof.FlowAdd
		case 1:
			fm.Command = zof.FlowModify
		case 2:
			fm.Command = zof.FlowDelete
		case 3:
			fm.Command = zof.FlowDeleteStrict
		case 4:
			ops = append(ops, g.groupMod(zof.GroupAdd, gid))
			continue
		case 5:
			ops = append(ops, g.groupMod(zof.GroupModify, gid))
			continue
		case 6:
			ops = append(ops, &zof.GroupMod{Command: zof.GroupDelete, GroupID: gid})
			continue
		}
		ops = append(ops, fm)
	}

	fs := &FlowStore{st: pre.clone()}
	undo := fs.undo(ops)
	if diff := stateDiff(&fs.st, &pre); diff != "" {
		t.Fatalf("undo wrote to the store: %s", diff)
	}
	st := pre.clone()
	for _, op := range ops {
		switch m := op.(type) {
		case *zof.FlowMod:
			if m.CookieMask != 0 && m.Command >= zof.FlowDelete {
				bare, unfiltered := st.clone(), *m
				unfiltered.CookieMask = 0
				bare.applyFlowMod(&unfiltered)
				st.applyFlowMod(m)
				if len(bare.flows) < len(st.flows) {
					cov.filterMisses++ // the cookie spared a rule
				}
				continue
			}
			st.applyFlowMod(m)
		case *zof.GroupMod:
			n := len(st.flows)
			st.applyGroupMod(m)
			if len(st.flows) < n {
				cov.cascades++
			}
		}
	}
	for i, op := range undo {
		was := st.clone()
		switch m := op.(type) {
		case *zof.FlowMod:
			switch m.Command {
			case zof.FlowAdd:
				cov.flowReadds++
				for _, a := range m.Actions {
					if _, ok := st.groups[a.Port]; a.Type == zof.ActGroup && !ok {
						t.Fatalf("undo[%d] re-adds a flow naming group %d before it exists", i, a.Port)
					}
				}
			case zof.FlowDeleteStrict:
				cov.flowDels++
			}
			st.applyFlowMod(m)
		case *zof.GroupMod:
			switch m.Command {
			case zof.GroupAdd:
				cov.groupAdds++
			case zof.GroupModify:
				cov.groupModifies++
			case zof.GroupDelete:
				cov.groupDels++
			}
			st.applyGroupMod(m)
		}
		if stateDiff(&st, &was) == "" {
			t.Fatalf("undo[%d] %+v changes nothing", i, op)
		}
	}
	if diff := stateDiff(&st, &pre); diff != "" {
		t.Fatalf("ops then undo left %s\nops: %d, undo: %d", diff, len(ops), len(undo))
	}
	cov.chains++
	if len(undo) == 0 {
		cov.emptyUndos++
	}
}

// stateDiff names the first difference between two states, or "".
func stateDiff(a, b *storeState) string {
	if !maps.EqualFunc(a.flows, b.flows, IntendedFlow.equal) {
		return fmt.Sprintf("flows %v, want %v", a.flows, b.flows)
	}
	if !maps.EqualFunc(a.groups, b.groups, IntendedGroup.equal) {
		return fmt.Sprintf("groups %v, want %v", a.groups, b.groups)
	}
	return ""
}

// TestTxnUndoRestoresIntent drives the checker with seeded chains of
// one to 24 ops over up to eleven pre-installed flows.
func TestTxnUndoRestoresIntent(t *testing.T) {
	var cov undoCoverage
	for seed := 0; seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 2+2*11+3*(1+rng.Intn(24)))
		rng.Read(data)
		checkTxnUndo(t, data, &cov)
	}
	t.Logf("%+v", cov)
	if cov.chains != 2000 || cov.emptyUndos < 5 || cov.cascades < 400 || cov.filterMisses < 600 ||
		cov.flowDels < 1000 || cov.groupDels < 1000 || cov.groupAdds < 400 || cov.groupModifies < 400 ||
		cov.flowReadds < 2000 {
		t.Fatalf("chains too sparse to test the undo: %+v", cov)
	}
}

// FuzzTxnUndo drives the same checker from bytes. The corpus under
// testdata/fuzz deletes a group that flows name and adds it back with
// other buckets, replaces a rule and then wildcard-deletes its table,
// and runs exact-cookie deletes that hit one rule and miss another.
func FuzzTxnUndo(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkTxnUndo(t, data, new(undoCoverage)) })
}

// diffCoverage says what a set of state pairs exercised.
type diffCoverage struct {
	pairs, emptyDiffs, unchanged                                          int
	flowDels, groupDels, groupAdds, groupModifies, flowAdds, flowReplaces int
}

// checkStateDiff draws two consistent states from data and requires
// that each order of their diff takes the first to the second. data[0]'s
// low four bits name the groups 1–4 the first state holds and its high
// four bits those the second holds; data[1] and data[2] give each
// state's group contents, two bits a group. Four bytes then make a
// flow: a key, where it lives (first only, second only, both, or both
// unchanged, then naming only groups both hold) and the first's and the
// second's rule. Along each batch every message must change the state
// it meets and no FlowAdd may name an absent group. A make-before-break
// batch must also never remove a rule whose key the second state holds
// and never delete a group a flow still names.
func checkStateDiff(t testing.TB, data []byte, cov *diffCoverage) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	from, to := newStoreState(), newStoreState()
	var fromGids, toGids, shared []uint32
	for id := uint32(1); id <= 4; id++ {
		inFrom, inTo := data[0]>>(id-1)&1 != 0, data[0]>>(id+3)&1 != 0
		if inFrom {
			from.groups[id] = undoGroup(data[1] >> (2 * (id - 1)))
			fromGids = append(fromGids, id)
		}
		if inTo {
			to.groups[id] = undoGroup(data[2] >> (2 * (id - 1)))
			toGids = append(toGids, id)
		}
		if inFrom && inTo {
			shared = append(shared, id)
		}
	}
	for rec := data[3:]; len(rec) >= 4; rec = rec[4:] {
		k := undoKey(rec[0])
		switch rec[1] % 4 {
		case 0:
			from.flows[k] = undoFlow(rec[2], fromGids)
		case 1:
			to.flows[k] = undoFlow(rec[3], toGids)
		case 2:
			from.flows[k], to.flows[k] = undoFlow(rec[2], fromGids), undoFlow(rec[3], toGids)
		case 3:
			from.flows[k] = undoFlow(rec[2], shared)
			to.flows[k] = from.flows[k]
		}
	}
	for k, f := range to.flows {
		if g, ok := from.flows[k]; ok && f.equal(g) {
			cov.unchanged++
		}
	}
	fromWas, toWas := from.clone(), to.clone()
	for _, order := range []diffOrder{breakBeforeMake, makeBeforeBreak} {
		batch := diff(&from, &to, order, appCookieMask)
		if d := stateDiff(&from, &fromWas) + stateDiff(&to, &toWas); d != "" {
			t.Fatalf("diff wrote to its arguments: %s", d)
		}
		st := from.clone()
		for i, op := range batch {
			was := st.clone()
			if order == makeBeforeBreak && isDelete(op) && !holds(&st, &to) {
				t.Fatalf("batch[%d] %+v breaks before the target is made", i, op)
			}
			switch m := op.(type) {
			case *zof.FlowMod:
				if m.Command == zof.FlowAdd {
					for _, a := range m.Actions {
						if _, ok := st.groups[a.Port]; a.Type == zof.ActGroup && !ok {
							t.Fatalf("order %v: batch[%d] adds a flow naming absent group %d", order, i, a.Port)
						}
					}
				}
				st.applyFlowMod(m)
			case *zof.GroupMod:
				if m.Command == zof.GroupDelete && order == makeBeforeBreak {
					for k, f := range st.flows {
						if flowReferencesGroup(f.Actions, m.GroupID) {
							t.Fatalf("batch[%d] deletes group %d while %+v names it", i, m.GroupID, k)
						}
					}
				}
				st.applyGroupMod(m)
			}
			if stateDiff(&st, &was) == "" {
				t.Fatalf("order %v: batch[%d] %+v changes nothing", order, i, op)
			}
			if order == makeBeforeBreak {
				for k := range to.flows {
					_, had := was.flows[k]
					if _, has := st.flows[k]; had && !has {
						t.Fatalf("batch[%d] %+v removes %+v, which the target holds", i, op, k)
					}
				}
			}
		}
		if d := stateDiff(&st, &to); d != "" {
			t.Fatalf("order %v: from + diff left %s\nbatch: %d", order, d, len(batch))
		}
	}
	cov.pairs++
	batch := diff(&from, &to, makeBeforeBreak, appCookieMask)
	if len(batch) == 0 {
		cov.emptyDiffs++
	}
	for _, op := range batch {
		switch m := op.(type) {
		case *zof.FlowMod:
			if m.Command == zof.FlowDeleteStrict {
				cov.flowDels++
			} else if _, ok := from.flows[FlowKey{m.TableID, m.Match, m.Priority}]; ok {
				cov.flowReplaces++
			} else {
				cov.flowAdds++
			}
		case *zof.GroupMod:
			switch m.Command {
			case zof.GroupAdd:
				cov.groupAdds++
			case zof.GroupModify:
				cov.groupModifies++
			case zof.GroupDelete:
				cov.groupDels++
			}
		}
	}
}

// isDelete reports whether op is a flow or group delete.
func isDelete(op zof.Message) bool {
	switch m := op.(type) {
	case *zof.FlowMod:
		return m.Command == zof.FlowDelete || m.Command == zof.FlowDeleteStrict
	case *zof.GroupMod:
		return m.Command == zof.GroupDelete
	}
	return false
}

// holds reports whether st holds every flow and group of target as is.
func holds(st, target *storeState) bool {
	for k, f := range target.flows {
		if g, ok := st.flows[k]; !ok || !f.equal(g) {
			return false
		}
	}
	for id, g := range target.groups {
		if h, ok := st.groups[id]; !ok || !g.equal(h) {
			return false
		}
	}
	return true
}

// TestStateDiff drives the checker with seeded pairs of up to twelve
// flow records each. Every twentieth pair draws two equal states.
func TestStateDiff(t *testing.T) {
	var cov diffCoverage
	for seed := 0; seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 3+4*rng.Intn(13))
		rng.Read(data)
		if seed%20 == 0 {
			data[0], data[2] = data[0]&0x0f|data[0]<<4, data[1]
			for i := 4; i < len(data); i += 4 {
				data[i] = 3
			}
		}
		checkStateDiff(t, data, &cov)
	}
	t.Logf("%+v", cov)
	if cov.pairs != 2000 || cov.emptyDiffs < 100 || cov.unchanged < 1000 || cov.flowDels < 1000 ||
		cov.groupDels < 1000 || cov.groupAdds < 1000 || cov.groupModifies < 700 || cov.flowAdds < 1000 ||
		cov.flowReplaces < 1500 {
		t.Fatalf("pairs too sparse to test the diff: %+v", cov)
	}
}

// FuzzStateDiff drives the same checker from bytes. The corpus under
// testdata/fuzz repoints a flow from a retired group to a new one,
// modifies a group an unchanged flow names, and moves a rule to
// another owner's cookie beside a delete and an add.
func FuzzStateDiff(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkStateDiff(t, data, new(diffCoverage)) })
}

// TestCompileForwarding: one destination's forwarding and a rule
// template compile to a plain output where one port survives the
// zero-weight drop, and to a select group with the template's id plus a
// FlowAdd naming it where several do.
func TestCompileForwarding(t *testing.T) {
	match := undoMatches[1]
	flow := func(a zof.Action) *zof.FlowMod {
		return &zof.FlowMod{Command: zof.FlowAdd, Match: match, Priority: 321, Cookie: 0xabc,
			BufferID: zof.NoBuffer, Actions: []zof.Action{a}}
	}
	group := func(id uint32, ports ...topo.WeightedPort) *zof.GroupMod {
		g := &zof.GroupMod{Command: zof.GroupAdd, GroupType: zof.GroupTypeSelect, GroupID: id}
		for _, p := range ports {
			g.Buckets = append(g.Buckets, zof.GroupBucket{Weight: p.Weight, Actions: []zof.Action{zof.Output(p.Port)}})
		}
		return g
	}
	type msgs = []zof.Message
	cases := []struct {
		name string
		gid  uint32
		fw   topo.Forwarding
		want map[topo.NodeID][]zof.Message
	}{
		{"one port is a plain output", 7,
			topo.Forwarding{5: {{Port: 7, Weight: 1}}},
			map[topo.NodeID][]zof.Message{5: msgs{flow(zof.Output(7))}}},
		{"two ports are a group, then a flow naming it", 7,
			topo.Forwarding{1: {{Port: 1, Weight: 12}, {Port: 2, Weight: 4}}, 2: {{Port: 3, Weight: 16}}},
			map[topo.NodeID][]zof.Message{
				1: msgs{group(7, topo.WeightedPort{Port: 1, Weight: 12}, topo.WeightedPort{Port: 2, Weight: 4}), flow(zof.Group(7))},
				2: msgs{flow(zof.Output(3))},
			}},
		{"buckets keep the given order and weights", 0xfffffffe,
			topo.Forwarding{1: {{Port: 3, Weight: 1}, {Port: 1, Weight: 2}, {Port: 2, Weight: 3}}},
			map[topo.NodeID][]zof.Message{1: msgs{
				group(0xfffffffe, topo.WeightedPort{Port: 3, Weight: 1}, topo.WeightedPort{Port: 1, Weight: 2}, topo.WeightedPort{Port: 2, Weight: 3}),
				flow(zof.Group(0xfffffffe))}}},
		{"zero weights are dropped before the group", 7,
			topo.Forwarding{1: {{Port: 1, Weight: 8}, {Port: 2, Weight: 0}, {Port: 3, Weight: 8}}},
			map[topo.NodeID][]zof.Message{1: msgs{
				group(7, topo.WeightedPort{Port: 1, Weight: 8}, topo.WeightedPort{Port: 3, Weight: 8}),
				flow(zof.Group(7))}}},
		{"a hop left with one port is a plain output", 7,
			topo.Forwarding{1: {{Port: 1, Weight: 0}, {Port: 2, Weight: 16}}},
			map[topo.NodeID][]zof.Message{1: msgs{flow(zof.Output(2))}}},
		{"a hop left with no port gets nothing", 7,
			topo.Forwarding{1: {{Port: 1, Weight: 0}}, 2: nil},
			map[topo.NodeID][]zof.Message{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := CompileForwarding(c.fw, RuleTemplate{Match: match, Priority: 321, Cookie: 0xabc, GroupID: c.gid})
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("got:\n%s\nwant:\n%s", dumpRules(got), dumpRules(c.want))
			}
		})
	}
}

// dumpRules prints per-node messages in node order.
func dumpRules(rules map[topo.NodeID][]zof.Message) string {
	nodes := make([]topo.NodeID, 0, len(rules))
	for n := range rules {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	var b strings.Builder
	for _, n := range nodes {
		for _, m := range rules[n] {
			fmt.Fprintf(&b, "  %d: %+v\n", n, m)
		}
	}
	return b.String()
}
