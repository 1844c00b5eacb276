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
// flows it installed, and no other app's, so the next packet re-routes.
type Routing struct {
	// Flushes counts LinkDown-triggered network-wide flushes (tests).
	Flushes atomic.Uint64

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
	r    *Routing
	hops []hop // path order; hops[0] took the packet-in

	left   atomic.Int32
	failed atomic.Bool
}

// hop is one switch of the path and the rule it gets, built with the
// set-up: one allocation holds every hop's FlowMod and its action.
type hop struct {
	sc  *controller.SwitchConn
	fm  zof.FlowMod
	out [1]zof.Action
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
	if s.failed.Load() || s.hops[0].sc.SendBatch(&s.hops[0].fm) != nil {
		r.fenceFailed.Inc()
		return
	}
	r.routes.Inc()
}

// NewRouting returns the app.
func NewRouting() *Routing {
	return &Routing{}
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
	match := zof.MatchAll()
	match.Wildcards &^= zof.WEthSrc | zof.WEthDst
	match.EthSrc = f.Eth.Src
	match.EthDst = f.Eth.Dst
	s := &setup{r: r, hops: make([]hop, len(route.Nodes))}
	// Every hop needs a live session before anything is sent anywhere:
	// a path with a hole in it is not worth releasing a frame into.
	for i, node := range route.Nodes {
		h := &s.hops[i]
		if h.sc, ok = c.Switch(uint64(node)); !ok {
			r.fenceFailed.Inc()
			return true
		}
		out, buffer := dst.Port, zof.NoBuffer
		if i < len(route.Ports) {
			out = route.Ports[i]
		}
		if i == 0 {
			buffer = ev.Msg.BufferID
		}
		h.out[0] = zof.Output(out)
		h.fm = zof.FlowMod{
			Command:     zof.FlowAdd,
			Match:       match,
			Priority:    routingPriority,
			Cookie:      controller.OwnerCookie(ownerRouting, 0),
			IdleTimeout: routingIdle,
			BufferID:    buffer,
			Actions:     h.out[:],
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
		s.hops[i].sc.SendFenced(arrive, &s.hops[i].fm)
	}
	return true
}

// LinkUp implements controller.LinkHandler.
func (r *Routing) LinkUp(c *controller.Controller, ev controller.LinkUp) {}

// LinkDown flushes routing's rules from every switch so paths
// recompute on demand. Flushing network-wide (not just the switches on
// affected paths) also covers an install triggered by an event queued
// before the failure notification.
func (r *Routing) LinkDown(c *controller.Controller, ev controller.LinkDown) {
	r.Flushes.Add(1)
	flushOwned(c, ownerRouting)
}

var _ controller.PacketInHandler = (*Routing)(nil)
var _ controller.LinkHandler = (*Routing)(nil)
