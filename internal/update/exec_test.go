package update

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/zof"
)

// execGraph is the diamond: 1 reaches 4 via 2 (up) or 3 (down).
func execGraph() *topo.Graph {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 10})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 10})
	return g
}

func execOpts() ExecOptions {
	return ExecOptions{
		MatchFor: func(c te.CommodityAlloc) zof.Match {
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEthDst
			m.EthDst[5] = byte(c.Demand.Dst)
			return m
		},
		EgressPort: func(dst topo.NodeID) uint32 { return 9 },
	}
}

// allocUp routes the commodity on the single path 1-2-4.
func allocUp(g *topo.Graph) *te.Allocation {
	return &te.Allocation{
		LinkLoad: map[topo.LinkKey]float64{},
		LinkCap:  Capacities(g),
		Commodities: []te.CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []te.PathAlloc{
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 4}, Cost: 2}, Rate: 10},
			},
		}},
	}
}

// allocSplit splits the commodity 5/5 across both arms, so node 1
// needs a select group.
func allocSplit(g *topo.Graph) *te.Allocation {
	return allocSplitAt(g, 5)
}

// allocSplitAt splits the commodity up/(10-up) across the arms.
func allocSplitAt(g *topo.Graph, up float64) *te.Allocation {
	return &te.Allocation{
		LinkLoad: map[topo.LinkKey]float64{},
		LinkCap:  Capacities(g),
		Commodities: []te.CommodityAlloc{{
			Demand:    workload.Demand{Src: 1, Dst: 4, Rate: 10},
			Allocated: 10,
			Paths: []te.PathAlloc{
				{Path: topo.Path{Nodes: []topo.NodeID{1, 2, 4}, Cost: 2}, Rate: up},
				{Path: topo.Path{Nodes: []topo.NodeID{1, 3, 4}, Cost: 2}, Rate: 10 - up},
			},
		}},
	}
}

// opKinds renders one node's op list as a compact sequence for
// ordering assertions.
func opKinds(msgs []zof.Message) string {
	var b strings.Builder
	for _, m := range msgs {
		switch v := m.(type) {
		case *zof.GroupMod:
			switch v.Command {
			case zof.GroupAdd:
				b.WriteString("G+")
			case zof.GroupModify:
				b.WriteString("G~")
			default:
				b.WriteString("G-")
			}
		case *zof.FlowMod:
			switch v.Command {
			case zof.FlowAdd:
				b.WriteString("F+")
			case zof.FlowDeleteStrict:
				b.WriteString("F-")
			default:
				b.WriteString("F?")
			}
		default:
			b.WriteString("??")
		}
	}
	return b.String()
}

// TestStepOpsMakeBeforeBreak: rendering the split→single transition
// must land replacement adds before deletes, tear down the uncovered
// rule on the abandoned arm, and delete the outgoing group last.
func TestStepOpsMakeBeforeBreak(t *testing.T) {
	g := execGraph()
	ops, err := StepOps(allocSplit(g), allocUp(g), g, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 survives in both configs: its replacement FlowAdd repoints
	// the rule, then the old select group goes.
	if got := opKinds(ops[1]); got != "F+G-" {
		t.Errorf("node 1 ops = %s, want F+G-", got)
	}
	// Node 3 carries traffic only in the old config: strict delete, no
	// group involved.
	if got := opKinds(ops[3]); got != "F-" {
		t.Errorf("node 3 ops = %s, want F-", got)
	}
	// Nodes 2 and 4 hold the same rule in both configs: nothing to send.
	for _, n := range []topo.NodeID{2, 4} {
		if got := opKinds(ops[n]); got != "" {
			t.Errorf("node %d ops = %s, want none", n, got)
		}
	}
	// The uncovered delete must use the compile priority so it hits the
	// rule the old config's add installed.
	del := ops[3][0].(*zof.FlowMod)
	if del.Priority != 400 {
		t.Errorf("delete priority = %d, want normalized 400", del.Priority)
	}
}

// TestStepOpsSameConfigurationSendsNothing: a step between two equal
// configurations sends no message — not even for the split commodity's
// select group.
func TestStepOpsSameConfigurationSendsNothing(t *testing.T) {
	g := execGraph()
	ops, err := StepOps(allocSplit(g), allocSplit(g), g, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	for n, msgs := range ops {
		t.Errorf("node %d ops = %s, want none", n, opKinds(msgs))
	}
}

// TestStepOpsResplitIsOneGroupModify: moving the diamond's split from
// 5/5 to 7.5/2.5 changes node 1's group buckets and nothing else, so
// the step is one GroupModify of the commodity's group there.
func TestStepOpsResplitIsOneGroupModify(t *testing.T) {
	g := execGraph()
	ops, err := StepOps(allocSplit(g), allocSplitAt(g, 7.5), g, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || opKinds(ops[1]) != "G~" {
		for n, msgs := range ops {
			t.Errorf("node %d ops = %s", n, opKinds(msgs))
		}
		t.Fatalf("want exactly G~ at node 1")
	}
	gm := ops[1][0].(*zof.GroupMod)
	if gm.GroupID != 1<<31|1<<15|4 {
		t.Errorf("group id = %#x, want the commodity's (1, 4) = 0x80008004", gm.GroupID)
	}
	if len(gm.Buckets) != 2 || gm.Buckets[0].Weight != 12 || gm.Buckets[1].Weight != 4 {
		t.Errorf("buckets = %+v, want weights 12/4", gm.Buckets)
	}
}

// TestCommodityGroupID: a commodity's group id packs (src, dst) under
// the top bit, which keeps it clear of the ECMP app's ids (counted up
// from 0x0ec0000); a node id past 15 bits is refused, never wrapped.
func TestCommodityGroupID(t *testing.T) {
	cases := []struct {
		src, dst topo.NodeID
		want     uint32 // 0: refused
	}{
		{1, 4, 0x80008004},
		{236, 1, 0x80760001}, // src<<16|dst would be ECMP's first id, 0x0ec0001
		{0, 0, 0x80000000},
		{1<<15 - 1, 1<<15 - 1, 0xbfffffff},
		{1 << 15, 1, 0},
		{1, 1 << 15, 0},
		{70000, 4, 0},
	}
	for _, c := range cases {
		got, err := commodityKey{c.src, c.dst}.groupID()
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("groupID(%d, %d) = %#x, want an error", c.src, c.dst, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("groupID(%d, %d) = %#x, %v; want %#x", c.src, c.dst, got, err, c.want)
		}
	}
}

// TestStepOpsRequiresOptions: both ExecOptions fields are required.
func TestStepOpsRequiresOptions(t *testing.T) {
	g := execGraph()
	if _, err := StepOps(allocUp(g), allocSplit(g), g, ExecOptions{}); err == nil {
		t.Fatal("missing options accepted")
	}
}

// TestInitialOpsBootstrap: the starting configuration renders as
// group-before-flow install batches.
func TestInitialOpsBootstrap(t *testing.T) {
	g := execGraph()
	p := &Plan{Steps: []*te.Allocation{allocSplit(g), allocUp(g)}}
	ops, err := p.InitialOps(g, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := opKinds(ops[1]); got != "G+F+" {
		t.Errorf("node 1 bootstrap = %s, want G+F+", got)
	}
	for _, n := range []topo.NodeID{2, 3, 4} {
		if got := opKinds(ops[n]); got != "F+" {
			t.Errorf("node %d bootstrap = %s, want F+", n, got)
		}
	}
}

// TestExecuteCommitsEveryTransition: a cooperative commit sees every
// transition in order and the report counts them all.
func TestExecuteCommitsEveryTransition(t *testing.T) {
	g := execGraph()
	p := &Plan{Steps: []*te.Allocation{allocSplit(g), allocUp(g), allocSplit(g)}}
	var steps []int
	rep, err := p.Execute(g, execOpts(), func(step int, ops map[topo.NodeID][]zof.Message) error {
		steps = append(steps, step)
		if len(ops) == 0 {
			return fmt.Errorf("empty transition %d", step)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted || rep.StepsApplied != 2 {
		t.Errorf("report = %+v, want 2 applied, not aborted", rep)
	}
	if len(steps) != 2 || steps[0] != 0 || steps[1] != 1 {
		t.Errorf("commit order = %v, want [0 1]", steps)
	}
}

// TestExecuteAbortsOnCommitFailure: a failed commit stops the update,
// names the failed transition, and reports the configuration the
// network was left at.
func TestExecuteAbortsOnCommitFailure(t *testing.T) {
	g := execGraph()
	p := &Plan{Steps: []*te.Allocation{allocSplit(g), allocUp(g), allocSplit(g)}}
	boom := errors.New("switch rejected batch")
	rep, err := p.Execute(g, execOpts(), func(step int, ops map[topo.NodeID][]zof.Message) error {
		if step == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped commit failure", err)
	}
	if !rep.Aborted || rep.FailedStep != 1 || rep.StepsApplied != 1 {
		t.Errorf("report = %+v, want aborted at 1 with 1 applied", rep)
	}
	if !strings.Contains(err.Error(), "network at configuration 1") {
		t.Errorf("error %q does not name the safe configuration", err)
	}
}

// TestStepOpsSendOnlyChanges walks E4's first WAN transition at 10 %
// scratch (seed 0, shift seed 1000) with one rule per (src, dst) on a
// dataplane.Switch per node. The switches must accept every message of
// InitialOps and of each StepOps batch, no FlowMod may leave its
// switch's rules as they were, and each switch must end up with exactly
// the rules the last configuration installs on an empty one.
func TestStepOpsSendOnlyChanges(t *testing.T) {
	g, _ := topo.WAN(1000)
	m1 := workload.Gravity(g, 9000, 0)
	old := solveOn(t, g, m1, 0.10)
	target := solveOn(t, g, workload.Perturb(m1, 0.8, 1000), 0.10)
	plan, err := (Planner{MaxIntermediates: 16}).Plan(old, target, Capacities(g))
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{
		MatchFor: func(c te.CommodityAlloc) zof.Match {
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEthSrc | zof.WEthDst
			m.EthSrc[5], m.EthDst[5] = byte(c.Demand.Src), byte(c.Demand.Dst)
			return m
		},
		EgressPort: func(topo.NodeID) uint32 { return 100 },
	}
	switches := func() map[topo.NodeID]*dataplane.Switch {
		sws := make(map[topo.NodeID]*dataplane.Switch)
		for _, n := range g.Nodes() {
			sws[n] = dataplane.NewSwitch(dataplane.Config{DPID: uint64(n), Clock: func() time.Time { return time.Unix(0, 0) }})
		}
		return sws
	}
	deliver := func(sws map[topo.NodeID]*dataplane.Switch, step string, ops map[topo.NodeID][]zof.Message) (flowMods, groupMods int) {
		for node, batch := range ops {
			for i, m := range batch {
				was := switchRules(sws[node])
				sws[node].Process(m, uint32(i), func(rep zof.Message, _ uint32) {
					t.Fatalf("%s: node %d refused message %d %+v: %v", step, node, i, m, rep)
				})
				if _, ok := m.(*zof.GroupMod); ok {
					groupMods++
					continue
				}
				flowMods++
				if maps.Equal(was, switchRules(sws[node])) {
					t.Fatalf("%s: node %d message %d %+v changes nothing", step, node, i, m)
				}
			}
		}
		return flowMods, groupMods
	}
	sws := switches()
	ops, err := plan.InitialOps(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, gm := deliver(sws, "initial", ops)
	t.Logf("initial: %d FlowMods, %d GroupMods", f, gm)
	var flowMods, groupMods int
	last := len(plan.Steps) - 1
	for i := 0; i < last; i++ {
		ops, err := StepOps(plan.Steps[i], plan.Steps[i+1], g, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, gm := deliver(sws, fmt.Sprintf("step %d", i), ops)
		flowMods += f
		groupMods += gm
	}
	t.Logf("%d transitions: %d FlowMods, %d GroupMods", last, flowMods, groupMods)
	if last != 3 || flowMods == 0 {
		t.Fatalf("plan of %d transitions with %d FlowMods: not the transition this test is about", last, flowMods)
	}
	want, err := compile(plan.Steps[last], g, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := switches()
	deliver(fresh, "fresh install", want)
	for n, sw := range sws {
		if got, want := switchRules(sw), switchRules(fresh[n]); !maps.Equal(got, want) {
			t.Errorf("node %d after the update holds %d rules, a fresh install of the last configuration %d", n, len(got), len(want))
		}
	}
}

// TestPlanOverTxnRetiresRules executes the split→single plan against
// connected switches, committing InitialOps and each StepOps batch as
// one controller transaction. The transaction stamps every FlowAdd's
// cookie with the session epoch, which the compiled programs never
// hold; the rule on the abandoned arm and node 1's select group must
// still go from both the switch and the controller's intended state.
func TestPlanOverTxnRetiresRules(t *testing.T) {
	g := execGraph()
	net, err := core.Start(core.Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	ctl := net.Controller
	commit := func(_ int, ops map[topo.NodeID][]zof.Message) error {
		txn := ctl.NewTxn()
		for node, msgs := range ops {
			txn.Add(uint64(node), msgs...)
		}
		return txn.Commit()
	}
	// state lists node's flows and groups on the switch and in the store.
	state := func(node topo.NodeID) [4]int {
		sw, fs := net.Emu.Switches[node], ctl.FlowStore(uint64(node))
		return [4]int{sw.FlowCount(), len(fs.Flows()), sw.GroupCount(), len(fs.Groups())}
	}
	plan := &Plan{Steps: []*te.Allocation{allocSplit(g), allocUp(g)}}
	ops, err := plan.InitialOps(g, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(0, ops); err != nil {
		t.Fatal(err)
	}
	if got := state(3); got != [4]int{1, 1, 0, 0} {
		t.Fatalf("node 3 after the bootstrap holds %v (switch flows, store flows, switch groups, store groups)", got)
	}
	if got := state(1); got != [4]int{1, 1, 1, 1} {
		t.Fatalf("node 1 after the bootstrap holds %v (switch flows, store flows, switch groups, store groups)", got)
	}
	if rep, err := plan.Execute(g, execOpts(), commit); err != nil || rep.StepsApplied != 1 {
		t.Fatalf("execute = %+v, %v", rep, err)
	}
	want := map[topo.NodeID][4]int{1: {1, 1, 0, 0}, 2: {1, 1, 0, 0}, 3: {}, 4: {1, 1, 0, 0}}
	for node, w := range want {
		if got := state(node); got != w {
			t.Errorf("node %d after the update holds %v (switch flows, store flows, switch groups, store groups), want %v",
				node, got, w)
		}
	}
}

// switchRules lists a switch's rules, one string per rule.
func switchRules(sw *dataplane.Switch) map[string]bool {
	out := make(map[string]bool)
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 0,
		func(rep zof.Message, _ uint32) {
			for _, f := range rep.(*zof.StatsReply).Flows {
				out[fmt.Sprintf("%+v", f)] = true
			}
		})
	return out
}
