package apps

import (
	"sync"
	"sync/atomic"

	"repro/internal/controller"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// Routing is the reactive shortest-path L3-ish forwarder: on the first
// packet of a flow toward a known host it computes the shortest path
// through the discovered topology and installs MAC-pair flows on every
// switch along it, then releases the packet. On topology changes it
// flushes the affected flows so the next packet re-routes.
type Routing struct {
	// Flushes counts LinkDown-triggered network-wide flushes (tests).
	Flushes atomic.Uint64
	// Debugf, when set, traces install/flush decisions (tests).
	Debugf func(format string, args ...any)

	mu sync.Mutex
	// installed tracks which (dpid) hold flows for a MAC pair so that
	// link failures can surgically flush.
	installed   map[pairKey][]uint64
	IdleTimeout uint16
	Priority    uint16

	// routes counts paths installed (one per routed MAC pair per
	// packet-in). Published as apps.spf-routing.* via RegisterMetrics.
	routes obs.Counter
}

type pairKey struct {
	src, dst packet.MAC
}

// NewRouting returns the app.
func NewRouting() *Routing {
	return &Routing{installed: make(map[pairKey][]uint64), IdleTimeout: 300, Priority: 200}
}

// Name implements controller.App.
func (r *Routing) Name() string { return "spf-routing" }

// RegisterMetrics implements controller.MetricsRegistrant.
func (r *Routing) RegisterMetrics(sc obs.Scope) {
	sc.RegisterCounter("routes", &r.routes)
	sc.RegisterFunc("flushes", func() int64 { return int64(r.Flushes.Load()) })
	sc.RegisterFunc("pairs", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(len(r.installed))
	})
}

// PacketIn implements controller.PacketInHandler.
func (r *Routing) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	var f packet.Frame
	if packet.Decode(ev.Msg.Data, &f) != nil {
		return false
	}
	// Broadcast/multicast (ARP requests etc.) are not routable; let the
	// learning/flood app deal with them.
	if f.Eth.Dst.IsBroadcast() || f.Eth.Dst.IsMulticast() {
		return false
	}
	dst, ok := c.NIB().Host(f.Eth.Dst)
	if !ok {
		return false // unknown destination: fall through to flooding
	}
	g := c.NIB().Graph()
	path, ok := g.ShortestPath(topo.NodeID(ev.DPID), topo.NodeID(dst.DPID))
	if !ok {
		return false
	}
	match := zof.MatchAll()
	match.Wildcards &^= zof.WEthSrc | zof.WEthDst
	match.EthSrc = f.Eth.Src
	match.EthDst = f.Eth.Dst

	key := pairKey{f.Eth.Src, f.Eth.Dst}
	var holders []uint64
	if r.Debugf != nil {
		r.Debugf("routing: install %v->%v via %v (pktin @%d)", f.Eth.Src, f.Eth.Dst, path.Nodes, ev.DPID)
	}

	// Install hop by hop, destination-first so the path is consistent
	// by the time the packet is released. Messages to one switch are
	// collected and sent as one batch (one flush): simple paths visit
	// a switch once, but multi-rule installs (and any future
	// multi-table programs) coalesce for free.
	perSwitch := make(map[uint64][]zof.Message, len(path.Nodes))
	for i := len(path.Nodes) - 1; i >= 0; i-- {
		node := path.Nodes[i]
		var outPort uint32
		if i == len(path.Nodes)-1 {
			outPort = dst.Port // egress to the host
		} else {
			p, ok := g.PortToward(node, path.Nodes[i+1])
			if !ok {
				return false
			}
			outPort = p
		}
		if _, ok := c.Switch(uint64(node)); !ok {
			continue
		}
		fm := &zof.FlowMod{
			Command:     zof.FlowAdd,
			Match:       match,
			Priority:    r.Priority,
			IdleTimeout: r.IdleTimeout,
			BufferID:    zof.NoBuffer,
			Actions:     []zof.Action{zof.Output(outPort)},
		}
		// Release the buffered packet at the packet-in switch.
		if uint64(node) == ev.DPID {
			fm.BufferID = ev.Msg.BufferID
		}
		if perSwitch[uint64(node)] == nil {
			holders = append(holders, uint64(node))
		}
		perSwitch[uint64(node)] = append(perSwitch[uint64(node)], fm)
	}
	// Destination-first order across switches: holders was appended
	// walking the path backward, so send in that order, packet-in
	// switch (the releaser) last.
	for _, node := range holders {
		if sc, ok := c.Switch(node); ok {
			_ = sc.SendBatch(perSwitch[node]...)
		}
	}
	r.mu.Lock()
	r.installed[key] = holders
	r.mu.Unlock()
	r.routes.Inc()
	return true
}

// LinkUp implements controller.LinkHandler.
func (r *Routing) LinkUp(c *controller.Controller, ev controller.LinkUp) {}

// LinkDown flushes every switch so paths recompute on demand. Flushing
// network-wide (not just the switches known to hold affected flows)
// closes the race where an install triggered by an event queued before
// the failure notification lands on a switch the tracker has not
// recorded yet.
func (r *Routing) LinkDown(c *controller.Controller, ev controller.LinkDown) {
	r.Flushes.Add(1)
	if r.Debugf != nil {
		r.Debugf("routing: flush-all on LinkDown %d:%d-%d:%d", ev.SrcDPID, ev.SrcPort, ev.DstDPID, ev.DstPort)
	}
	r.mu.Lock()
	r.installed = make(map[pairKey][]uint64)
	r.mu.Unlock()
	for _, sc := range c.Switches() {
		m := zof.MatchAll() // wildcard delete of everything reactive
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowDelete, Match: m,
			BufferID: zof.NoBuffer})
	}
}

// SwitchUp implements controller.SwitchHandler. On a reconnect the
// switch's flow table is about to be reconciled against the new
// session epoch, so any pair recorded as held there must be forgotten:
// the next packet of those flows re-routes and reinstalls under the
// fresh session.
func (r *Routing) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	if !ev.Reconnect {
		return
	}
	r.forget(ev.DPID)
}

// SwitchDown implements controller.SwitchHandler: flows on a dead
// switch are gone with it, so drop the pairs it held.
func (r *Routing) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	r.forget(ev.DPID)
}

// forget drops every tracked pair whose holders include dpid. The
// whole pair is dropped (not just the one hop) because a path missing
// one switch is broken end to end; remaining hops idle-time out or are
// flushed by the next install.
func (r *Routing) forget(dpid uint64) {
	r.mu.Lock()
	for key, holders := range r.installed {
		for _, h := range holders {
			if h == dpid {
				delete(r.installed, key)
				break
			}
		}
	}
	r.mu.Unlock()
}

var _ controller.PacketInHandler = (*Routing)(nil)
var _ controller.LinkHandler = (*Routing)(nil)
var _ controller.SwitchHandler = (*Routing)(nil)
