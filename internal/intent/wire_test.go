package intent

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/zof"
)

// TestLinkDownOverTxnRetiresRules runs an intent's lifecycle against
// connected switches, committing each batch as one controller
// transaction. The transaction stamps every FlowAdd's cookie with the
// session epoch, which the manager's own records never hold; the hop
// a reroute leaves, and later every hop of a withdrawn intent, must
// still go from both the switch and the controller's intended state.
func TestLinkDownOverTxnRetiresRules(t *testing.T) {
	g := diamond()
	net, err := core.Start(core.Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	ctl := net.Controller
	m := NewManager(g, func(ops map[topo.NodeID][]zof.Message) error {
		txn := ctl.NewTxn()
		for node, msgs := range ops {
			txn.Add(uint64(node), msgs...)
		}
		return txn.Commit()
	})
	// rulesAt lists node's flow count on the switch and in the store.
	rulesAt := func(node topo.NodeID) [2]int {
		return [2]int{net.Emu.Switches[node].FlowCount(), len(ctl.IntendedFlows(uint64(node)))}
	}
	if err := m.Submit(Intent{ID: 1, Src: Endpoint{1, 10}, Dst: Endpoint{4, 20},
		Match: matchFor(1, 4), Priority: 500}); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Path(1)
	mid := before.Nodes[1]
	if got := rulesAt(mid); got != [2]int{1, 1} {
		t.Fatalf("node %d on the path holds %v rules (switch, store), want one each", mid, got)
	}
	for _, f := range ctl.IntendedFlows(uint64(mid)) {
		if controller.CookieEpoch(f.Cookie) == 0 {
			t.Fatalf("rule at node %d has cookie %#x, not stamped with an epoch", mid, f.Cookie)
		}
	}
	var k topo.LinkKey
	for _, l := range g.Links() {
		if l.Key().A == 1 && l.Key().B == mid || l.Key().A == mid && l.Key().B == 1 {
			k = l.Key()
		}
	}
	if rerouted, lost, _ := m.OnLinkDown(k); rerouted != 1 || lost != 0 {
		t.Fatalf("rerouted %d, lost %d", rerouted, lost)
	}
	after, _ := m.Path(1)
	for _, node := range g.Nodes() {
		want := [2]int{}
		for _, n := range after.Nodes {
			if n == node {
				want = [2]int{1, 1}
			}
		}
		if got := rulesAt(node); got != want {
			t.Errorf("after the reroute onto %v node %d holds %v rules (switch, store), want %v",
				after.Nodes, node, got, want)
		}
	}
	if err := m.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	for _, node := range g.Nodes() {
		if got := rulesAt(node); got != [2]int{} {
			t.Errorf("after the withdraw node %d holds %v rules (switch, store)", node, got)
		}
	}
}
