package controller

import (
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
// and host locations. Writers are the controller internals; apps read.
type NIB struct {
	mu       sync.RWMutex
	switches map[uint64]zof.FeaturesReply
	ports    map[uint64]map[uint32]zof.PortInfo
	hosts    map[packet.MAC]HostInfo
	byIP     map[packet.IPv4Addr]packet.MAC
	// infraPorts is the sticky switch-port classification: once a port
	// has faced another switch it stays "infrastructure" until its
	// switch departs, even if the link is currently down or removed.
	// Without stickiness, a transit frame whose packet-in is dispatched
	// just after a link removal would mislearn a host location from an
	// interior port — a real cross-connection ordering race.
	infraPorts map[uint64]map[uint32]bool

	// graph is the writers' working copy (guarded by mu); topology is
	// what readers see — an immutable snapshot republished, under the
	// next version, by every mutation that changes the graph and by no
	// other. Packet-in handlers load it and never take mu for topology;
	// WatchTopology's callers wait on its next channel.
	graph    *topo.Graph
	topology atomic.Pointer[version[*topo.Snapshot]]
}

// NewNIB returns an empty NIB.
func NewNIB() *NIB {
	n := &NIB{
		switches:   make(map[uint64]zof.FeaturesReply),
		ports:      make(map[uint64]map[uint32]zof.PortInfo),
		graph:      topo.New(),
		hosts:      make(map[packet.MAC]HostInfo),
		byIP:       make(map[packet.IPv4Addr]packet.MAC),
		infraPorts: make(map[uint64]map[uint32]bool),
	}
	publish(&n.topology, n.graph.Snapshot(0))
	return n
}

// publishLocked republishes the topology after a change to the graph.
func (n *NIB) publishLocked() {
	publish(&n.topology, n.graph.Snapshot(n.Topology().Version()+1))
}

func (n *NIB) addSwitch(f zof.FeaturesReply) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.switches[f.DPID] = f
	pm := make(map[uint32]zof.PortInfo, len(f.Ports))
	for _, p := range f.Ports {
		pm[p.No] = p
	}
	n.ports[f.DPID] = pm
	if !n.graph.HasNode(topo.NodeID(f.DPID)) {
		n.graph.AddNode(topo.NodeID(f.DPID))
		n.publishLocked()
	}
}

func (n *NIB) removeSwitch(dpid uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.switches, dpid)
	delete(n.ports, dpid)
	delete(n.infraPorts, dpid)
	// The node goes with its links: a ghost left in the graph would
	// root the flood tree at an island once it is the lowest DPID.
	if n.graph.RemoveNode(topo.NodeID(dpid)) {
		n.publishLocked()
	}
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
}

func (n *NIB) setPort(dpid uint64, p zof.PortInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pm, ok := n.ports[dpid]
	if !ok {
		pm = make(map[uint32]zof.PortInfo)
		n.ports[dpid] = pm
	}
	pm[p.No] = p
	// Propagate link-down onto any incident graph link.
	node, down, flipped := topo.NodeID(dpid), !p.Up(), false
	for _, l := range n.graph.Neighbors(node) {
		onPort := (l.A == node && l.APort == p.No) || (l.B == node && l.BPort == p.No)
		if onPort && l.Down != down {
			l.Down = down
			flipped = true
		}
	}
	if flipped {
		n.publishLocked()
	}
}

func (n *NIB) addLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.markInfraLocked(a, ap)
	n.markInfraLocked(b, bp)
	l := topo.Link{A: topo.NodeID(a), B: topo.NodeID(b), APort: ap, BPort: bp, Metric: 1, Capacity: 1000}
	if existing, ok := n.graph.Link(l.Key()); ok {
		if !existing.Down {
			return false // re-discovered live link: nothing to republish
		}
		existing.Down = false
	} else {
		n.graph.AddLink(l)
	}
	n.publishLocked()
	return true
}

func (n *NIB) removeLink(a uint64, ap uint32, b uint64, bp uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := topo.Link{A: topo.NodeID(a), B: topo.NodeID(b), APort: ap, BPort: bp}
	if !n.graph.RemoveLink(l.Key()) {
		return false
	}
	n.publishLocked()
	return true
}

// learnHost records a host sighting; returns true if new or moved.
// The steady state — the same host seen at the same place — is a pure
// read and takes only the read lock, so concurrent dispatch shards do
// not serialize on host-learning writes.
func (n *NIB) learnHost(mac packet.MAC, ip packet.IPv4Addr, dpid uint64, port uint32) bool {
	if mac.IsMulticast() || mac.IsBroadcast() {
		return false
	}
	n.mu.RLock()
	if n.isSwitchPortLocked(dpid, port) {
		n.mu.RUnlock()
		return false
	}
	if old, ok := n.hosts[mac]; ok && old.DPID == dpid && old.Port == port &&
		(ip == old.IP || ip == (packet.IPv4Addr{})) {
		n.mu.RUnlock()
		return false
	}
	n.mu.RUnlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	// Ignore sightings on inter-switch ports: those are transit frames,
	// not host attachment points.
	if n.isSwitchPortLocked(dpid, port) {
		return false
	}
	old, ok := n.hosts[mac]
	changed := !ok || old.DPID != dpid || old.Port != port
	info := HostInfo{MAC: mac, IP: ip, DPID: dpid, Port: port}
	if ip == (packet.IPv4Addr{}) && ok {
		info.IP = old.IP // keep previously learned IP
	}
	if !changed && ok && info.IP == old.IP {
		return false
	}
	n.hosts[mac] = info
	if info.IP != (packet.IPv4Addr{}) {
		n.byIP[info.IP] = mac
	}
	return changed || (ok && info.IP != old.IP)
}

func (n *NIB) markInfraLocked(dpid uint64, port uint32) {
	pm := n.infraPorts[dpid]
	if pm == nil {
		pm = make(map[uint32]bool)
		n.infraPorts[dpid] = pm
	}
	pm[port] = true
}

func (n *NIB) isSwitchPortLocked(dpid uint64, port uint32) bool {
	return n.infraPorts[dpid][port]
}

// Switches lists known datapaths.
func (n *NIB) Switches() []zof.FeaturesReply {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]zof.FeaturesReply, 0, len(n.switches))
	for _, f := range n.switches {
		out = append(out, f)
	}
	return out
}

// HasSwitch reports whether dpid is connected.
func (n *NIB) HasSwitch(dpid uint64) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.switches[dpid]
	return ok
}

// Ports returns every known port of a datapath, including ports added
// after the handshake.
func (n *NIB) Ports(dpid uint64) []zof.PortInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	pm := n.ports[dpid]
	out := make([]zof.PortInfo, 0, len(pm))
	for _, p := range pm {
		out = append(out, p)
	}
	return out
}

// Port returns the port record.
func (n *NIB) Port(dpid uint64, no uint32) (zof.PortInfo, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	pm, ok := n.ports[dpid]
	if !ok {
		return zof.PortInfo{}, false
	}
	p, ok := pm[no]
	return p, ok
}

// Topology returns the published inter-switch topology: immutable,
// version-stamped, with the shortest-path trees and the flood forest
// derived from it memoised inside. This is what a packet-in handler
// routes on — one atomic load, no lock, no copy.
func (n *NIB) Topology() *topo.Snapshot { return n.topology.Load().v }

// WatchTopology returns the published topology and a channel that is
// closed when a newer snapshot replaces it. A caller waiting for the
// topology to reach some condition tests the snapshot, then waits on
// the channel: no publish between the two can go unseen.
func (n *NIB) WatchTopology() (*topo.Snapshot, <-chan struct{}) {
	t := n.topology.Load()
	return t.v, t.next
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
// (replication).
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

// IsSwitchPort reports whether (dpid, port) leads to another switch.
func (n *NIB) IsSwitchPort(dpid uint64, port uint32) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.isSwitchPortLocked(dpid, port)
}
