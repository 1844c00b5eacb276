package controller

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// hasSwitch reports whether n's view holds an entry for dpid.
func hasSwitch(n *NIB, dpid uint64) bool { _, ok := n.current().features[dpid]; return ok }

func nibFeatures(dpid uint64, ports ...uint32) zof.FeaturesReply {
	f := zof.FeaturesReply{DPID: dpid}
	for _, p := range ports {
		f.Ports = append(f.Ports, zof.PortInfo{No: p})
	}
	return f
}

// TestNIBRemoveSwitchDropsHosts is the regression test for the host
// leak: removeSwitch used to clear switches/ports/links but leave the
// departed switch's hosts in hosts and byIP, so lookups kept routing
// toward a switch that no longer existed and the maps grew without
// bound across switch churn.
func TestNIBRemoveSwitchDropsHosts(t *testing.T) {
	n := NewNIB()
	n.addSwitch(nibFeatures(1, 1, 2))
	n.addSwitch(nibFeatures(2, 1, 2))

	macA := packet.MAC{0, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{0, 0, 0, 0, 0, 0xb}
	ipA := packet.IPv4Addr{10, 0, 0, 1}
	ipB := packet.IPv4Addr{10, 0, 0, 2}
	if !n.learnHost(macA, ipA, 1, 1) {
		t.Fatal("learnHost A")
	}
	if !n.learnHost(macB, ipB, 2, 1) {
		t.Fatal("learnHost B")
	}

	n.removeSwitch(1)

	if _, ok := n.Host(macA); ok {
		t.Error("host on removed switch still in hosts map")
	}
	if _, ok := n.HostByIP(ipA); ok {
		t.Error("host on removed switch still in byIP index")
	}
	if h, ok := n.Host(macB); !ok || h.DPID != 2 {
		t.Errorf("host on surviving switch lost: ok=%v h=%+v", ok, h)
	}
	if h, ok := n.HostByIP(ipB); !ok || h.MAC != macB {
		t.Errorf("surviving byIP entry lost: ok=%v h=%+v", ok, h)
	}
}

// TestNIBRemoveSwitchKeepsStolenIPIndex: if a host moved switches and
// re-learned (byIP now points at its new location's MAC entry), the
// departed switch's cleanup must not tear out an index entry it no
// longer owns.
func TestNIBRemoveSwitchKeepsStolenIPIndex(t *testing.T) {
	n := NewNIB()
	n.addSwitch(nibFeatures(1, 1))
	n.addSwitch(nibFeatures(2, 1))

	ip := packet.IPv4Addr{10, 0, 0, 9}
	macOld := packet.MAC{0, 0, 0, 0, 1, 1}
	macNew := packet.MAC{0, 0, 0, 0, 2, 2}
	n.learnHost(macOld, ip, 1, 1) // old NIC on switch 1
	n.learnHost(macNew, ip, 2, 1) // replacement NIC claims the IP on switch 2

	n.removeSwitch(1)

	if h, ok := n.HostByIP(ip); !ok || h.MAC != macNew {
		t.Errorf("byIP entry owned by surviving host removed: ok=%v h=%+v", ok, h)
	}
}

// TestNIBApplyReplication exercises the exported Apply* mutators the
// cluster layer feeds peer deltas through.
func TestNIBApplyReplication(t *testing.T) {
	n := NewNIB()
	n.ApplySwitch(nibFeatures(7, 1, 2))
	if !hasSwitch(n, 7) {
		t.Fatal("ApplySwitch did not install")
	}
	n.ApplyPort(7, zof.PortInfo{No: 3})
	if !slices.ContainsFunc(n.Ports(7), func(p zof.PortInfo) bool { return p.No == 3 }) {
		t.Error("ApplyPort did not install")
	}
	n.ApplySwitch(nibFeatures(8, 1))
	if !n.ApplyLink(7, 1, 8, 1) {
		t.Error("ApplyLink reported no-op for a new link")
	}
	if !n.IsSwitchPort(7, 1) || !n.IsSwitchPort(8, 1) {
		t.Error("ApplyLink did not mark infra ports")
	}
	h := HostInfo{MAC: packet.MAC{1, 2, 3, 4, 5, 6}, IP: packet.IPv4Addr{10, 1, 1, 1}, DPID: 7, Port: 2}
	n.ApplyHost(h)
	if got, ok := n.Host(h.MAC); !ok || got != h {
		t.Errorf("ApplyHost: ok=%v got=%+v", ok, got)
	}
	// Verbatim write preserves a previously learned IP when the delta
	// carries none (ARP-less sighting replicated).
	n.ApplyHost(HostInfo{MAC: h.MAC, DPID: 7, Port: 2})
	if got, _ := n.Host(h.MAC); got.IP != h.IP {
		t.Errorf("ApplyHost dropped learned IP: %+v", got)
	}
	if !n.ApplyRemoveLink(7, 1, 8, 1) {
		t.Error("ApplyRemoveLink reported no-op")
	}
	n.ApplyRemoveSwitch(7)
	if hasSwitch(n, 7) {
		t.Error("ApplyRemoveSwitch did not remove")
	}
	if _, ok := n.Host(h.MAC); ok {
		t.Error("ApplyRemoveSwitch left the switch's host behind")
	}
}

// nibModel is the differential test's independent picture of what the
// NIB's graph should hold: which nodes exist and, per link, whether it
// is down.
type nibModel struct {
	nodes map[uint64]bool
	links map[topo.LinkKey]bool // key → down
}

// The mutations of the differential test.
const (
	evAddLink      = iota // a:ap - b:bp
	evRemoveLink          // a:ap - b:bp
	evSetPort             // a:ap goes down or up
	evRemoveSwitch        // a
	evAddSwitch           // a
)

// nibEvent is one mutation, playable into a NIB and into the model.
type nibEvent struct {
	kind   int
	a, b   uint64
	ap, bp uint32
	down   bool
}

func (ev nibEvent) play(n *NIB) {
	switch ev.kind {
	case evAddLink:
		n.addLink(ev.a, ev.ap, ev.b, ev.bp)
	case evRemoveLink:
		n.removeLink(ev.a, ev.ap, ev.b, ev.bp)
	case evSetPort:
		p := zof.PortInfo{No: ev.ap}
		if ev.down {
			p.State = zof.PortStateLinkDown
		}
		n.setPort(ev.a, p)
	case evRemoveSwitch:
		n.removeSwitch(ev.a)
	case evAddSwitch:
		n.addSwitch(nibFeatures(ev.a))
	}
}

func (ev nibEvent) key() topo.LinkKey {
	return (&topo.Link{A: topo.NodeID(ev.a), B: topo.NodeID(ev.b), APort: ev.ap, BPort: ev.bp}).Key()
}

// model plays the event into m and reports whether m changed.
func (ev nibEvent) model(m *nibModel) bool {
	switch ev.kind {
	case evAddLink:
		down, ok := m.links[ev.key()]
		m.links[ev.key()] = false
		fresh := !m.nodes[ev.a] || !m.nodes[ev.b]
		m.nodes[ev.a], m.nodes[ev.b] = true, true
		return !ok || down || fresh
	case evRemoveLink:
		_, ok := m.links[ev.key()]
		delete(m.links, ev.key())
		return ok
	case evSetPort:
		changed := false
		for k, down := range m.links {
			on := (uint64(k.A) == ev.a && k.APort == ev.ap) || (uint64(k.B) == ev.a && k.BPort == ev.ap)
			if on && down != ev.down {
				m.links[k] = ev.down
				changed = true
			}
		}
		return changed
	case evRemoveSwitch:
		if !m.nodes[ev.a] {
			return false
		}
		delete(m.nodes, ev.a)
		for k := range m.links {
			if uint64(k.A) == ev.a || uint64(k.B) == ev.a {
				delete(m.links, k)
			}
		}
		return true
	default: // evAddSwitch
		fresh := !m.nodes[ev.a]
		m.nodes[ev.a] = true
		return fresh
	}
}

// TestNIBSnapshotMatchesOracle is the published topology's
// differential test. Random graphs under random mutation schedules
// (links added, removed, flapped and re-announced; switches leaving
// and returning) are fed to two NIBs — the second gets the initial
// links in a different order — and after every step:
//
//   - the version moved iff the model says the graph changed;
//   - for every node pair the snapshot's memoised path costs what
//     Graph.ShortestPath computes on a fresh private copy, and is a
//     walk over live links leaving each hop by the port it names;
//   - 100 repeated queries, and the second NIB, give the identical
//     path — the equal-cost choice is a function of the NIB's content.
func TestNIBSnapshotMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(6)
		nextPort := make(map[uint64]uint32)
		port := func(n uint64) uint32 { nextPort[n]++; return nextPort[n] }
		var links []nibEvent
		newLink := func(a, b uint64) {
			links = append(links, nibEvent{kind: evAddLink, a: a, ap: port(a), b: b, bp: port(b)})
		}
		for n := uint64(2); n <= uint64(nodes); n++ {
			newLink(uint64(1+rng.Intn(int(n-1))), n) // connected
		}
		for i := 0; i < nodes; i++ { // chords: equal-cost ties
			if a, b := uint64(1+rng.Intn(nodes)), uint64(1+rng.Intn(nodes)); a != b {
				newLink(a, b)
			}
		}

		a, b := NewNIB(), NewNIB()
		m := &nibModel{nodes: map[uint64]bool{}, links: map[topo.LinkKey]bool{}}
		for _, ev := range links {
			ev.play(a)
			ev.model(m)
		}
		for _, i := range rng.Perm(len(links)) {
			links[i].play(b)
		}
		checkNIBSnapshot(t, seed, -1, a, b, m)

		for step := 0; step < 60; step++ {
			ev := links[rng.Intn(len(links))] // mostly about known links
			switch r := rng.Intn(10); {
			case r < 2: // (re-)announce
			case r < 4:
				ev.kind = evRemoveLink
			case r < 7:
				ev.kind, ev.down = evSetPort, rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					ev.a, ev.ap = ev.b, ev.bp
				}
			case r < 8:
				ev.kind = evRemoveSwitch
			case r < 9:
				ev.kind = evAddSwitch
			default:
				newLink(uint64(1+rng.Intn(nodes)), uint64(nodes+1+rng.Intn(2)))
				ev = links[len(links)-1]
			}
			before := a.Topology().Version()
			ev.play(a)
			ev.play(b)
			changed := ev.model(m)
			if moved := a.Topology().Version() != before; moved != changed {
				t.Fatalf("seed %d step %d %+v: version moved=%v, graph changed=%v", seed, step, ev, moved, changed)
			}
			checkNIBSnapshot(t, seed, step, a, b, m)
		}
	}
}

func sameRoute(a, b topo.Route) bool {
	return a.Cost == b.Cost && slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Ports, b.Ports)
}

func checkNIBSnapshot(t *testing.T, seed int64, step int, a, b *NIB, m *nibModel) {
	t.Helper()
	snap, other := a.Topology(), b.Topology()
	g := a.Graph()
	if g.NumNodes() != len(m.nodes) || g.NumLinks() != len(m.links) || snap.NumLinks() != len(m.links) {
		t.Fatalf("seed %d step %d: graph %d/%d snapshot %d links, model %d/%d", seed, step,
			g.NumNodes(), g.NumLinks(), snap.NumLinks(), len(m.nodes), len(m.links))
	}
	for _, src := range g.Nodes() {
		for _, dst := range g.Nodes() {
			want, reachable := g.ShortestPath(src, dst)
			got, ok := snap.Path(src, dst)
			if ok != reachable || got.Cost != want.Cost {
				t.Fatalf("seed %d step %d: %d->%d = %v (%v), oracle %v (%v)", seed, step, src, dst, got, ok, want, reachable)
			}
			if !ok {
				continue
			}
			for i, out := range got.Ports {
				live := false
				for _, l := range g.Neighbors(got.Nodes[i]) {
					peer, local, _, _ := l.Other(got.Nodes[i])
					live = live || (!l.Down && local == out && peer == got.Nodes[i+1])
				}
				if !live {
					t.Fatalf("seed %d step %d: %d->%d hop %d: no live link %d:%d -> %d", seed, step, src, dst, i, got.Nodes[i], out, got.Nodes[i+1])
				}
			}
			for i := 0; i < 100; i++ {
				if again, _ := snap.Path(src, dst); !sameRoute(again, got) {
					t.Fatalf("seed %d step %d: %d->%d changed on query %d: %v then %v", seed, step, src, dst, i, got.Nodes, again.Nodes)
				}
			}
			if twin, _ := other.Path(src, dst); !sameRoute(twin, got) {
				t.Fatalf("seed %d step %d: %d->%d differs between two NIBs fed the same events: %v vs %v", seed, step, src, dst, got, twin)
			}
		}
	}
}

// TestNIBWatchTopologyReleasesOnPublish: a waiter holding version v's
// channel is released exactly when v+1 is published. Re-discovering a
// live link publishes nothing, so it releases nobody.
func TestNIBWatchTopologyReleasesOnPublish(t *testing.T) {
	n := NewNIB()
	n.addSwitch(nibFeatures(1, 1))
	n.addSwitch(nibFeatures(2, 1))
	n.addLink(1, 1, 2, 1)
	snap, changed := n.WatchTopology()

	if n.addLink(1, 1, 2, 1) {
		t.Fatal("re-discovering a live link reported a change")
	}
	select {
	case <-changed:
		t.Fatal("re-discovering a live link released a waiter")
	default:
	}
	if now, _ := n.WatchTopology(); now != snap {
		t.Fatalf("re-discovery published version %d over %d", now.Version(), snap.Version())
	}

	n.setPort(1, zof.PortInfo{No: 1, State: zof.PortStateLinkDown})
	select {
	case <-changed:
	default:
		t.Fatal("publishing the next version did not release its waiter")
	}
	next, nextChanged := n.WatchTopology()
	if next.Version() != snap.Version()+1 {
		t.Fatalf("released at version %d, want %d", next.Version(), snap.Version()+1)
	}
	select {
	case <-nextChanged:
		t.Fatal("the newest version's channel is already closed")
	default:
	}
}
