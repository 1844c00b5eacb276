package controller

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// HostInfo is a learned host location.
type HostInfo struct {
	MAC  packet.MAC
	IP   packet.IPv4Addr // zero until IP traffic seen
	DPID uint64
	Port uint32
}

// NIB is the network information base: the controller's authoritative,
// concurrently readable picture of switches, ports, inter-switch links
// and host locations. Switches with their sessions and ports, the
// sticky infra ports and the topology are one immutable view,
// republished whole under the next version by each change, so one
// load sees them agree. Writers are the controller internals; apps read.
type NIB struct {
	// mu serializes the writers: every view publish and every host
	// write. Host readers take it shared; view readers never take it.
	mu sync.RWMutex
	// graph is the writers' working copy of the topology (guarded by
	// mu); view is what readers see.
	graph *topo.Graph
	view  atomic.Pointer[version[*view]]
	hosts map[packet.MAC]HostInfo
	byIP  map[packet.IPv4Addr]packet.MAC
}

// view is one published picture of the switches. Immutable once
// published. Its topology snapshot is replaced only when the graph
// changes, so a session or port change keeps the memoised trees.
type view struct {
	// sessions holds each local session; a standby that knows a switch
	// only by replication has none for it.
	sessions map[uint64]*SwitchConn
	// features holds every known switch, with its current ports sorted
	// by number.
	features map[uint64]zof.FeaturesReply
	// infra is the sticky switch-port classification: once a port has
	// faced another switch it stays "infrastructure" until its switch
	// departs, even if the link is currently down or removed. Without
	// stickiness, a transit frame whose packet-in is dispatched just
	// after a link removal would mislearn a host location from an
	// interior port — a real cross-connection ordering race.
	infra    map[uint64]map[uint32]bool
	topology *topo.Snapshot
}

// NewNIB returns an empty NIB.
func NewNIB() *NIB {
	n := &NIB{
		graph: topo.New(),
		hosts: make(map[packet.MAC]HostInfo),
		byIP:  make(map[packet.IPv4Addr]packet.MAC),
	}
	publish(&n.view, &view{topology: n.graph.Snapshot(0)})
	return n
}

// current returns the published view: one atomic load, no lock.
func (n *NIB) current() *view { return n.view.Load().v }

// commitLocked publishes next, with a new topology snapshot if the
// graph changed. The caller holds mu.
func (n *NIB) commitLocked(next view, graphChanged bool) {
	if graphChanged {
		next.topology = n.graph.Snapshot(next.topology.Version() + 1)
	}
	publish(&n.view, &next)
}

// with returns a copy of m with k set to v; a published map is never
// written.
func with[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	out := make(map[K]V, len(m)+1)
	maps.Copy(out, m)
	out[k] = v
	return out
}

// without returns a copy of m without k.
func without[K comparable, V any](m map[K]V, k K) map[K]V {
	m = maps.Clone(m)
	delete(m, k)
	return m
}

func byPortNo(a, b zof.PortInfo) int { return cmp.Compare(a.No, b.No) }

// addSwitch installs or refreshes a switch learned without a session of
// its own (replication), keeping any session it has.
func (n *NIB) addSwitch(f zof.FeaturesReply) { n.putSwitch(f, nil) }

// putSwitch installs f as its switch's features and ports, and conn,
// if not nil, as its session; it returns the session conn displaced.
func (n *NIB) putSwitch(f zof.FeaturesReply, conn *SwitchConn) (displaced *SwitchConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := *n.current()
	f.Ports = slices.Clone(f.Ports)
	slices.SortFunc(f.Ports, byPortNo)
	next.features = with(next.features, f.DPID, f)
	if conn != nil {
		displaced = next.sessions[f.DPID]
		next.sessions = with(next.sessions, f.DPID, conn)
	}
	node := topo.NodeID(f.DPID)
	added := !n.graph.HasNode(node)
	if added {
		n.graph.AddNode(node)
	}
	n.commitLocked(next, added)
	return displaced
}

// removeSwitch drops a switch learned without a session (replication).
// A replicated switch-down says the master lost its session, not that
// this instance lost its own: a switch with a local session stays
// whole, hosts and graph node too, for a takeover to activate, until
// that session's own teardown removes it.
func (n *NIB) removeSwitch(dpid uint64) { n.dropSwitch(dpid, nil) }

// dropSwitch removes dpid's switch, session, infra ports, node, links
// and hosts if conn is its session (nil: it has none), and reports
// whether it did.
func (n *NIB) dropSwitch(dpid uint64, conn *SwitchConn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := *n.current()
	if next.sessions[dpid] != conn {
		return false
	}
	next.sessions = without(next.sessions, dpid)
	next.features = without(next.features, dpid)
	next.infra = without(next.infra, dpid)
	// The node goes with its links: a ghost left in the graph would
	// root the flood tree at an island once it is the lowest DPID.
	n.commitLocked(next, n.graph.RemoveNode(topo.NodeID(dpid)))
	// Hosts attached to the departed switch are unreachable and their
	// locations stale; drop them (and their IP index entries) so a
	// forwarding app cannot route toward a switch that no longer
	// exists. They re-learn from traffic wherever they reappear.
	for mac, h := range n.hosts {
		if h.DPID != dpid {
			continue
		}
		delete(n.hosts, mac)
		if h.IP != (packet.IPv4Addr{}) && n.byIP[h.IP] == mac {
			delete(n.byIP, h.IP)
		}
	}
	return true
}

func (n *NIB) setPort(dpid uint64, p zof.PortInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := *n.current()
	if f, ok := next.features[dpid]; ok {
		ports := slices.DeleteFunc(slices.Clone(f.Ports), func(q zof.PortInfo) bool { return q.No == p.No })
		i, _ := slices.BinarySearchFunc(ports, p, byPortNo)
		f.Ports = slices.Insert(ports, i, p)
		next.features = with(next.features, dpid, f)
	}
	// Propagate link-down onto any incident graph link.
	node, down, flipped := topo.NodeID(dpid), !p.Up(), false
	for _, l := range n.graph.Neighbors(node) {
		onPort := (l.A == node && l.APort == p.No) || (l.B == node && l.BPort == p.No)
		if onPort && l.Down != down {
			l.Down = down
			flipped = true
		}
	}
	n.commitLocked(next, flipped)
}

func (n *NIB) addLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := *n.current()
	marked := next.infra[a][ap] && next.infra[b][bp]
	if !marked {
		next.infra = with(next.infra, a, with(next.infra[a], ap, true))
		next.infra = with(next.infra, b, with(next.infra[b], bp, true))
	}
	l := topo.Link{A: topo.NodeID(a), B: topo.NodeID(b), APort: ap, BPort: bp, Metric: 1, Capacity: 1000}
	existing, known := n.graph.Link(l.Key())
	changed := !known || existing.Down
	if !changed && marked {
		return false // re-discovered live link: nothing to republish
	}
	if known {
		existing.Down = false
	} else {
		n.graph.AddLink(l)
	}
	n.commitLocked(next, changed)
	return changed
}

func (n *NIB) removeLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := topo.Link{A: topo.NodeID(a), B: topo.NodeID(b), APort: ap, BPort: bp}
	if !n.graph.RemoveLink(l.Key()) {
		return false
	}
	n.commitLocked(*n.current(), true)
	return true
}

// learnHost records a host sighting; returns true if new or moved.
// The steady state — the same host seen at the same place — is a pure
// read and takes only the read lock, so concurrent dispatch shards do
// not serialize on host-learning writes.
func (n *NIB) learnHost(mac packet.MAC, ip packet.IPv4Addr, dpid uint64, port uint32) bool {
	// Ignore sightings on inter-switch ports: those are transit frames,
	// not host attachment points.
	if mac.IsMulticast() || mac.IsBroadcast() || n.IsSwitchPort(dpid, port) {
		return false
	}
	n.mu.RLock()
	old, ok := n.hosts[mac]
	n.mu.RUnlock()
	if ok && old.DPID == dpid && old.Port == port && (ip == old.IP || ip == (packet.IPv4Addr{})) {
		return false
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	// Checked again under the writer lock: no link can mark the port
	// between this check and the write.
	if n.IsSwitchPort(dpid, port) {
		return false
	}
	old, ok = n.hosts[mac]
	info := HostInfo{MAC: mac, IP: ip, DPID: dpid, Port: port}
	if ip == (packet.IPv4Addr{}) && ok {
		info.IP = old.IP // keep previously learned IP
	}
	if ok && info == old {
		return false
	}
	n.hosts[mac] = info
	if info.IP != (packet.IPv4Addr{}) {
		n.byIP[info.IP] = mac
	}
	return true
}

// Switches lists known datapaths, each with its current ports.
// Lock-free.
func (n *NIB) Switches() []zof.FeaturesReply {
	sw := n.current().features
	out := make([]zof.FeaturesReply, 0, len(sw))
	for _, f := range sw {
		out = append(out, f)
	}
	return out
}

// Ports returns every known port of a datapath, including ports added
// after the handshake, sorted by number. Lock-free.
func (n *NIB) Ports(dpid uint64) []zof.PortInfo {
	return slices.Clone(n.current().features[dpid].Ports)
}

// IsSwitchPort reports whether (dpid, port) leads to another switch.
// Lock-free.
func (n *NIB) IsSwitchPort(dpid uint64, port uint32) bool {
	return n.current().infra[dpid][port]
}

// Topology returns the published inter-switch topology: immutable,
// version-stamped, with the shortest-path trees and the flood forest
// derived from it memoised inside. This is what a packet-in handler
// routes on — one atomic load, no lock, no copy.
func (n *NIB) Topology() *topo.Snapshot { return n.current().topology }

// WatchTopology returns the published topology and a channel that is
// closed when a newer view replaces it (the topology in it may be the
// same). A caller waiting for the topology to reach some condition
// tests the snapshot, then waits on the channel: no publish between
// the two can go unseen.
func (n *NIB) WatchTopology() (*topo.Snapshot, <-chan struct{}) {
	v := n.view.Load()
	return v.v.topology, v.next
}

// Graph returns a private mutable copy of the inter-switch topology,
// for planners that want a graph they may break (simulated failures,
// what-if metrics). It copies the whole graph: nothing on a packet-in
// path should call it — route on Topology instead.
func (n *NIB) Graph() *topo.Graph { return n.Topology().Graph() }

// Host looks a host up by MAC.
func (n *NIB) Host(mac packet.MAC) (HostInfo, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.hosts[mac]
	return h, ok
}

// HostByIP looks a host up by IPv4 address.
func (n *NIB) HostByIP(ip packet.IPv4Addr) (HostInfo, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	mac, ok := n.byIP[ip]
	if !ok {
		return HostInfo{}, false
	}
	h, ok := n.hosts[mac]
	return h, ok
}

// Hosts lists learned hosts.
func (n *NIB) Hosts() []HostInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]HostInfo, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	return out
}

// Replication mutators: the cluster layer applies peer-originated NIB
// deltas through these, so a standby's topology picture tracks the
// master's without a local switch connection. They reuse the internal
// mutators — replicated state obeys the same invariants (sticky infra
// ports, link-down propagation) as locally observed state — except
// ApplyHost, which writes verbatim: the infra-port heuristic already
// ran on the instance that saw the packet.

// ApplySwitch installs or refreshes a switch entry (replication).
func (n *NIB) ApplySwitch(f zof.FeaturesReply) { n.addSwitch(f) }

// ApplyRemoveSwitch removes a switch and its dependent state
// (replication), unless a local session holds it (see removeSwitch).
func (n *NIB) ApplyRemoveSwitch(dpid uint64) { n.removeSwitch(dpid) }

// ApplyPort installs or refreshes a port record (replication).
func (n *NIB) ApplyPort(dpid uint64, p zof.PortInfo) { n.setPort(dpid, p) }

// ApplyLink installs an inter-switch link (replication). Returns true
// if the link was new or revived.
func (n *NIB) ApplyLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	return n.addLink(a, ap, b, bp)
}

// ApplyRemoveLink removes an inter-switch link (replication).
func (n *NIB) ApplyRemoveLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	return n.removeLink(a, ap, b, bp)
}

// ApplyHost installs a host location verbatim (replication).
func (n *NIB) ApplyHost(h HostInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.hosts[h.MAC]; ok && h.IP == (packet.IPv4Addr{}) {
		h.IP = old.IP
	}
	n.hosts[h.MAC] = h
	if h.IP != (packet.IPv4Addr{}) {
		n.byIP[h.IP] = h.MAC
	}
}
