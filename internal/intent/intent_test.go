package intent

import (
	"sync"
	"testing"

	"repro/internal/topo"
	"repro/internal/zof"
)

// fakeNet records applied rule ops and models per-switch tables so
// tests can assert on the installed state.
type fakeNet struct {
	mu   sync.Mutex
	ops  []ruleOp
	live map[uint64]map[ruleID]bool // dpid -> installed rules
}

// ruleOp is one FlowMod the manager committed, with its switch.
type ruleOp struct {
	DPID uint64
	Mod  *zof.FlowMod
}

type ruleID struct {
	match    zof.Match
	priority uint16
}

func newFakeNet() *fakeNet {
	return &fakeNet{live: make(map[uint64]map[ruleID]bool)}
}

func (f *fakeNet) Apply(batch map[topo.NodeID][]zof.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ops []ruleOp
	for node, msgs := range batch {
		for _, m := range msgs {
			ops = append(ops, ruleOp{uint64(node), m.(*zof.FlowMod)})
		}
	}
	for _, op := range ops {
		f.ops = append(f.ops, op)
		tbl := f.live[op.DPID]
		if tbl == nil {
			tbl = make(map[ruleID]bool)
			f.live[op.DPID] = tbl
		}
		id := ruleID{op.Mod.Match, op.Mod.Priority}
		switch op.Mod.Command {
		case zof.FlowAdd:
			tbl[id] = true
		case zof.FlowDeleteStrict, zof.FlowDelete:
			delete(tbl, id)
		}
	}
	return nil
}

func (f *fakeNet) rulesAt(dpid uint64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.live[dpid])
}

func (f *fakeNet) totalRules() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, tbl := range f.live {
		n += len(tbl)
	}
	return n
}

func matchFor(src, dst byte) zof.Match {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthSrc | zof.WEthDst
	m.EthSrc[5] = src
	m.EthDst[5] = dst
	return m
}

func diamond() *topo.Graph {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2})
	return g
}

func TestSubmitInstallsPath(t *testing.T) {
	g := diamond()
	net := newFakeNet()
	m := NewManager(g, net.Apply)
	in := Intent{
		ID:    1,
		Src:   Endpoint{Node: 1, Port: 10},
		Dst:   Endpoint{Node: 4, Port: 20},
		Match: matchFor(1, 4), Priority: 500,
	}
	if err := m.Submit(in); err != nil {
		t.Fatal(err)
	}
	p, ok := m.Path(1)
	if !ok || p.Len() != 2 {
		t.Fatalf("path = %+v ok=%v", p, ok)
	}
	// One rule per path node (3 nodes on a 2-hop path).
	if net.totalRules() != 3 {
		t.Fatalf("rules = %d", net.totalRules())
	}
	// Last hop egresses on the intent's destination port.
	var lastOp ruleOp
	for _, op := range net.ops {
		if op.DPID == 4 {
			lastOp = op
		}
	}
	if lastOp.Mod == nil || lastOp.Mod.Actions[0].Port != 20 {
		t.Fatalf("egress rule = %+v", lastOp)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d", m.Len())
	}
	// Stretch starts at 1.
	if s, ok := m.Stretch(1); !ok || s != 1 {
		t.Errorf("stretch = %v ok=%v", s, ok)
	}
	// Duplicate refused.
	if err := m.Submit(in); err != ErrDuplicate {
		t.Errorf("dup err = %v", err)
	}
}

func TestWithdrawRemovesRules(t *testing.T) {
	g := diamond()
	net := newFakeNet()
	m := NewManager(g, net.Apply)
	in := Intent{ID: 7, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 500}
	if err := m.Submit(in); err != nil {
		t.Fatal(err)
	}
	if err := m.Withdraw(7); err != nil {
		t.Fatal(err)
	}
	if net.totalRules() != 0 {
		t.Fatalf("rules after withdraw = %d", net.totalRules())
	}
	if err := m.Withdraw(7); err != ErrNotFound {
		t.Errorf("second withdraw = %v", err)
	}
	if m.Len() != 0 {
		t.Errorf("len = %d", m.Len())
	}
}

func TestLinkDownReroutes(t *testing.T) {
	g := diamond()
	net := newFakeNet()
	m := NewManager(g, net.Apply)
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 500}); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Path(1)

	// Fail a link on the chosen path.
	var failed topo.LinkKey
	for i := 0; i+1 < len(before.Nodes); i++ {
		a, b := before.Nodes[i], before.Nodes[i+1]
		for _, l := range g.Links() {
			k := l.Key()
			if (k.A == a && k.B == b) || (k.A == b && k.B == a) {
				failed = k
			}
		}
	}
	rerouted, lost, dur := m.OnLinkDown(failed)
	if rerouted != 1 || lost != 0 {
		t.Fatalf("rerouted=%d lost=%d", rerouted, lost)
	}
	if dur <= 0 {
		t.Error("no duration recorded")
	}
	after, ok := m.Path(1)
	if !ok {
		t.Fatal("intent lost its path")
	}
	if after.Equal(before) {
		t.Fatal("path did not change")
	}
	// New path avoids the failed link.
	for i := 0; i+1 < len(after.Nodes); i++ {
		a, b := after.Nodes[i], after.Nodes[i+1]
		if (failed.A == a && failed.B == b) || (failed.A == b && failed.B == a) {
			t.Fatal("rerouted path uses the failed link")
		}
	}
	// Rule state: still exactly one path installed (old rules gone).
	if net.totalRules() != len(after.Nodes) {
		t.Fatalf("rules = %d, want %d", net.totalRules(), len(after.Nodes))
	}
	if m.Recompiles.Count() != 1 {
		t.Errorf("recompile count = %d", m.Recompiles.Count())
	}
	// Stretch still 1 on the diamond (both paths cost 2).
	if s, _ := m.Stretch(1); s != 1 {
		t.Errorf("stretch = %v", s)
	}
}

func TestLinkDownExhaustsPaths(t *testing.T) {
	g := topo.Linear(3, 100) // single path only
	net := newFakeNet()
	m := NewManager(g, net.Apply)
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 5}, Dst: Endpoint{3, 6},
		Match: matchFor(1, 3), Priority: 9}); err != nil {
		t.Fatal(err)
	}
	_, lost, _ := m.OnLinkDown(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1})
	if lost != 1 {
		t.Fatalf("lost = %d", lost)
	}
	if _, ok := m.Path(1); ok {
		t.Fatal("failed intent still reports a path")
	}
	if m.Failed() != 1 {
		t.Errorf("failed = %d", m.Failed())
	}
	// Old rules withdrawn even though recompile failed.
	if net.totalRules() != 0 {
		t.Errorf("rules = %d", net.totalRules())
	}
	// Restore: the intent comes back.
	if rec := m.OnLinkUp(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}); rec != 1 {
		t.Fatalf("recovered = %d", rec)
	}
	if _, ok := m.Path(1); !ok {
		t.Fatal("intent not recovered")
	}
	if net.totalRules() != 3 {
		t.Errorf("rules after recovery = %d", net.totalRules())
	}
}

func TestSubmitNoPath(t *testing.T) {
	g := topo.New()
	g.AddNode(1)
	g.AddNode(2)
	m := NewManager(g, newFakeNet().Apply)
	err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 1}, Dst: Endpoint{2, 1},
		Match: zof.MatchAll(), Priority: 1})
	if err != ErrNoPath {
		t.Fatalf("err = %v", err)
	}
	if m.Len() != 0 {
		t.Error("failed submit left a record")
	}
}

func TestManyIntentsManyFailures(t *testing.T) {
	// Fat-tree with dozens of intents; fail core links one by one;
	// every surviving intent must keep a valid, loop-free path that
	// avoids all failed links.
	g, edges, err := topo.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	net := newFakeNet()
	m := NewManager(g, net.Apply)
	id := ID(0)
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			id++
			if err := m.Submit(Intent{ID: id,
				Src: Endpoint{edges[i], 100}, Dst: Endpoint{edges[j], 100},
				Match: matchFor(byte(i), byte(j)), Priority: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := int(id)
	failed := map[topo.LinkKey]bool{}
	links := g.Links()
	for i := 0; i < 6; i++ {
		k := links[i*3].Key()
		failed[k] = true
		m.OnLinkDown(k)
		for ii := ID(1); ii <= ID(total); ii++ {
			p, ok := m.Path(ii)
			if !ok {
				continue // acceptable: intent currently unroutable
			}
			seen := map[topo.NodeID]bool{}
			for n := 0; n < len(p.Nodes); n++ {
				if seen[p.Nodes[n]] {
					t.Fatalf("intent %d path has a loop: %v", ii, p.Nodes)
				}
				seen[p.Nodes[n]] = true
				if n+1 < len(p.Nodes) {
					a, b := p.Nodes[n], p.Nodes[n+1]
					for k := range failed {
						if (k.A == a && k.B == b) || (k.A == b && k.B == a) {
							t.Fatalf("intent %d crosses failed link %v", ii, k)
						}
					}
				}
			}
		}
	}
	if m.Recompiles.Count() != 6 {
		t.Errorf("recompile events = %d", m.Recompiles.Count())
	}
	t.Logf("recompiles: %v", m.Recompiles)
}

// TestWithdrawUnroutableCommitsNothing: an intent that lost its path
// holds no rules, so withdrawing it has nothing to commit.
func TestWithdrawUnroutableCommitsNothing(t *testing.T) {
	net := newFakeNet()
	commits := 0
	m := NewManager(topo.Linear(3, 100), func(ops map[topo.NodeID][]zof.Message) error {
		commits++
		return net.Apply(ops)
	})
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 5}, Dst: Endpoint{3, 6},
		Match: matchFor(1, 3), Priority: 9}); err != nil {
		t.Fatal(err)
	}
	if _, lost, _ := m.OnLinkDown(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}); lost != 1 {
		t.Fatalf("lost = %d", lost)
	}
	was := commits
	if err := m.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	if commits != was {
		t.Errorf("withdrawing an unroutable intent made %d commits", commits-was)
	}
}
