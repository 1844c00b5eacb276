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
// packet of a flow toward a known host it reads the shortest path off
// the published topology and installs MAC-pair flows on every switch
// along it, then releases the packet — behind the downstream hops'
// barrier replies, so the frame never meets a half-installed path and
// a flow costs one packet-in. On topology changes it flushes the
// affected flows so the next packet re-routes.
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
	// packet-in); fenceFailed counts set-ups abandoned because a hop
	// had no live session, refused the send or died before its barrier
	// reply — no ingress rule, the frame left to the buffer ring.
	// Published as apps.spf-routing.* via RegisterMetrics.
	routes      obs.Counter
	fenceFailed obs.Counter
}

// setup is one path install in flight: the downstream hops' barrier
// replies are counted in on their connections' readers, and the last
// one to arrive releases the buffered frame — or does not, if any hop
// failed.
type setup struct {
	r       *Routing
	key     pairKey
	match   zof.Match
	hops    []*controller.SwitchConn // path order; hops[0] took the packet-in
	holders []uint64                 // the hops' DPIDs
	ports   []uint32                 // ports[i]: hop i's port toward hop i+1
	dstPort uint32                   // the last hop's port to the host
	buffer  uint32                   // the packet-in's BufferID

	left   atomic.Int32
	failed atomic.Bool
}

// rule is hop i's FlowMod.
func (s *setup) rule(i int, buffer uint32) *zof.FlowMod {
	out := s.dstPort
	if i < len(s.ports) {
		out = s.ports[i]
	}
	return &zof.FlowMod{
		Command:     zof.FlowAdd,
		Match:       s.match,
		Priority:    s.r.Priority,
		IdleTimeout: s.r.IdleTimeout,
		BufferID:    buffer,
		Actions:     []zof.Action{zof.Output(out)},
	}
}

// arrive takes one downstream hop's fence result.
func (s *setup) arrive(err error) {
	if err != nil {
		s.failed.Store(true)
	}
	if s.left.Add(-1) == 0 {
		s.release()
	}
}

// release installs the packet-in switch's rule. It carries the
// BufferID, so installing it forwards the buffered frame: it goes last
// and only onto a whole path.
func (s *setup) release() {
	r := s.r
	if s.failed.Load() || s.hops[0].SendBatch(s.rule(0, s.buffer)) != nil {
		r.fenceFailed.Inc()
		return
	}
	r.mu.Lock()
	r.installed[s.key] = s.holders
	r.mu.Unlock()
	r.routes.Inc()
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
	sc.RegisterCounter("fence_failed", &r.fenceFailed)
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
	route, ok := c.NIB().Topology().Path(topo.NodeID(ev.DPID), topo.NodeID(dst.DPID))
	if !ok {
		return false
	}
	if r.Debugf != nil {
		r.Debugf("routing: install %v->%v via %v (pktin @%d)", f.Eth.Src, f.Eth.Dst, route.Nodes, ev.DPID)
	}
	s := &setup{
		r:       r,
		key:     pairKey{f.Eth.Src, f.Eth.Dst},
		match:   zof.MatchAll(),
		hops:    make([]*controller.SwitchConn, len(route.Nodes)),
		holders: make([]uint64, len(route.Nodes)),
		ports:   route.Ports,
		dstPort: dst.Port,
		buffer:  ev.Msg.BufferID,
	}
	s.match.Wildcards &^= zof.WEthSrc | zof.WEthDst
	s.match.EthSrc = f.Eth.Src
	s.match.EthDst = f.Eth.Dst
	// Every hop needs a live session before anything is sent anywhere:
	// a path with a hole in it is not worth releasing a frame into.
	for i, node := range route.Nodes {
		s.holders[i] = uint64(node)
		if s.hops[i], ok = c.Switch(uint64(node)); !ok {
			r.fenceFailed.Inc()
			return true
		}
	}
	// Each downstream hop gets its rule and a barrier in one flush; the
	// replies come back on the hops' own readers, so this shard is free
	// for the next packet-in while the fence is out.
	down := len(s.hops) - 1
	if down == 0 {
		s.release()
		return true
	}
	s.left.Store(int32(down))
	arrive := s.arrive
	for i := down; i > 0; i-- {
		s.hops[i].SendFenced(arrive, s.rule(i, zof.NoBuffer))
	}
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
