package apps

import (
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

	IdleTimeout uint16
	Priority    uint16

	// routes counts paths installed (one per routed MAC pair per
	// packet-in); fenceFailed counts set-ups abandoned because a hop
	// had no live session, refused the send, rejected its rule or died
	// before its barrier reply — no ingress rule; the frame stays buffered.
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
	match   zof.Match
	hops    []*controller.SwitchConn // path order; hops[0] took the packet-in
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

// arrive takes one downstream hop's fence result; nil means it took its rule.
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
	r.routes.Inc()
}

// NewRouting returns the app.
func NewRouting() *Routing {
	return &Routing{IdleTimeout: 300, Priority: 200}
}

// Name implements controller.App.
func (r *Routing) Name() string { return "spf-routing" }

// RegisterMetrics implements controller.MetricsRegistrant.
func (r *Routing) RegisterMetrics(sc obs.Scope) {
	sc.RegisterCounter("routes", &r.routes)
	sc.RegisterCounter("fence_failed", &r.fenceFailed)
	sc.RegisterFunc("flushes", func() int64 { return int64(r.Flushes.Load()) })
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
		match:   zof.MatchAll(),
		hops:    make([]*controller.SwitchConn, len(route.Nodes)),
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
// network-wide (not just the switches on affected paths) also covers
// an install triggered by an event queued before the failure
// notification.
func (r *Routing) LinkDown(c *controller.Controller, ev controller.LinkDown) {
	r.Flushes.Add(1)
	if r.Debugf != nil {
		r.Debugf("routing: flush-all on LinkDown %d:%d-%d:%d", ev.SrcDPID, ev.SrcPort, ev.DstDPID, ev.DstPort)
	}
	for _, sc := range c.Switches() {
		m := zof.MatchAll() // wildcard delete of everything reactive
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowDelete, Match: m,
			BufferID: zof.NoBuffer})
	}
}

var _ controller.PacketInHandler = (*Routing)(nil)
var _ controller.LinkHandler = (*Routing)(nil)
