package apps

import (
	"sync"

	"repro/internal/controller"
	"repro/internal/packet"
	"repro/internal/zof"
)

// LoadBalancer is an Ananta-flavored layer-4 VIP balancer implemented
// entirely in rule installation: clients address a virtual IP; the
// client's edge switch rewrites the flow to a backend (direct IP) and
// rewrites replies back to the VIP. Backend choice is per-flow via the
// symmetric flow hash, so both directions shard identically.
type LoadBalancer struct {
	VIP    packet.IPv4Addr
	VIPMAC packet.MAC

	mu       sync.Mutex
	backends []packet.IPv4Addr
	// Decisions records flow -> backend (tests and ops visibility).
	decisions   map[packet.FlowKey]packet.IPv4Addr
	IdleTimeout uint16
	Priority    uint16
}

// NewLoadBalancer creates a balancer for vip.
func NewLoadBalancer(vip packet.IPv4Addr, backends ...packet.IPv4Addr) *LoadBalancer {
	return &LoadBalancer{
		VIP:         vip,
		VIPMAC:      packet.MACFromUint64(0x02FE00000000 | uint64(vip.Uint32())),
		backends:    append([]packet.IPv4Addr(nil), backends...),
		decisions:   make(map[packet.FlowKey]packet.IPv4Addr),
		IdleTimeout: 60,
		Priority:    30000,
	}
}

// Name implements controller.App.
func (lb *LoadBalancer) Name() string { return "l4-loadbalancer" }

// SetBackends replaces the backend pool.
func (lb *LoadBalancer) SetBackends(backends ...packet.IPv4Addr) {
	lb.mu.Lock()
	lb.backends = append(lb.backends[:0], backends...)
	lb.mu.Unlock()
}

// Decisions returns a copy of the flow->backend map.
func (lb *LoadBalancer) Decisions() map[packet.FlowKey]packet.IPv4Addr {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make(map[packet.FlowKey]packet.IPv4Addr, len(lb.decisions))
	for k, v := range lb.decisions {
		out[k] = v
	}
	return out
}

// PacketIn implements controller.PacketInHandler: answers ARP for the
// VIP and installs the NAT rule pair for new VIP flows.
func (lb *LoadBalancer) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	var f packet.Frame
	if packet.Decode(ev.Msg.Data, &f) != nil {
		return false
	}
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return false
	}
	// Proxy-ARP the VIP.
	if f.Has(packet.LayerARP) && f.ARP.Op == packet.ARPRequest && f.ARP.TargetIP == lb.VIP {
		eth, rep := packet.NewARPReply(lb.VIPMAC, lb.VIP, &f.ARP)
		b := packet.NewBuffer(64)
		rep.SerializeTo(b)
		eth.SerializeTo(b)
		_ = sc.PacketOut(&zof.PacketOut{
			BufferID: zof.NoBuffer,
			Actions:  []zof.Action{zof.Output(ev.Msg.InPort)},
			Data:     append([]byte(nil), b.Bytes()...),
		})
		return true
	}
	if !f.Has(packet.LayerIPv4) || f.IPv4.Dst != lb.VIP {
		return false
	}

	backend, bok := lb.pick(&f)
	if !bok {
		return true // no backends: blackhole VIP traffic
	}
	bh, ok := c.NIB().HostByIP(backend)
	if !ok {
		return true // backend location unknown yet; drop first packet
	}

	// Forward rule at the packet-in (client edge) switch: VIP -> DIP.
	fwd := zof.ExactMatch(&f, ev.Msg.InPort)
	fwdActs := []zof.Action{
		zof.SetIPDst(backend),
		zof.SetEthDst(bh.MAC),
	}
	// Egress: either the backend hangs off this switch, or head toward
	// it along the shortest path.
	out, ok := lb.portToward(c, ev.DPID, bh)
	if !ok {
		return true
	}
	fwdActs = append(fwdActs, zof.Output(out))
	fwdMod := &zof.FlowMod{
		Command: zof.FlowAdd, Match: fwd, Priority: lb.Priority,
		IdleTimeout: lb.IdleTimeout, BufferID: ev.Msg.BufferID, Actions: fwdActs,
	}

	// Reverse rule: backend -> client rewritten to come from the VIP,
	// delivered out the client port.
	rev := zof.MatchAll()
	rev.EtherType = packet.EtherTypeIPv4
	rev.Wildcards &^= zof.WEtherType
	rev.IPSrc = backend
	rev.SrcPrefix = 32
	rev.IPDst = f.IPv4.Src
	rev.DstPrefix = 32
	if f.Has(packet.LayerTCP) || f.Has(packet.LayerUDP) {
		rev.Wildcards &^= zof.WIPProto | zof.WTPSrc | zof.WTPDst
		rev.IPProto = f.IPv4.Protocol
		rev.TPSrc = fwd.TPDst
		rev.TPDst = fwd.TPSrc
	}
	revActs := []zof.Action{
		zof.SetIPSrc(lb.VIP),
		zof.SetEthSrc(lb.VIPMAC),
		zof.Output(ev.Msg.InPort),
	}
	revMod := &zof.FlowMod{
		Command: zof.FlowAdd, Match: rev, Priority: lb.Priority,
		IdleTimeout: lb.IdleTimeout, BufferID: zof.NoBuffer, Actions: revActs,
	}
	// The NAT rule pair is one burst: one write, one syscall. Order is
	// the contract: the rule carrying the packet-in's BufferID releases
	// the buffered request as it installs, so it goes last — were it
	// first, the backend's reply could reach the switch before the
	// reverse rule and leave un-NATed, from the backend's own address.
	_ = sc.SendBatch(revMod, fwdMod)

	var key packet.FlowKey
	key.Extract(&f)
	lb.mu.Lock()
	lb.decisions[key] = backend
	lb.mu.Unlock()
	return true
}

// pick chooses a backend for the flow, sticky per flow key.
func (lb *LoadBalancer) pick(f *packet.Frame) (packet.IPv4Addr, bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(lb.backends) == 0 {
		return packet.IPv4Addr{}, false
	}
	var key packet.FlowKey
	key.Extract(f)
	if b, ok := lb.decisions[key]; ok {
		// Only reuse if still in the pool.
		for _, cand := range lb.backends {
			if cand == b {
				return b, true
			}
		}
	}
	h := key.SymmetricHash()
	return lb.backends[h%uint64(len(lb.backends))], true
}

// portToward finds the output port from dpid to the backend host.
func (lb *LoadBalancer) portToward(c *controller.Controller, dpid uint64, bh controller.HostInfo) (uint32, bool) {
	if bh.DPID == dpid {
		return bh.Port, true
	}
	route, ok := c.NIB().Topology().Path(topoNode(dpid), topoNode(bh.DPID))
	if !ok || len(route.Ports) == 0 {
		return 0, false
	}
	return route.Ports[0], true
}

// SwitchUp implements controller.SwitchHandler. The balancer is fully
// reactive — NAT rules reinstall on the next packet of each flow — so
// a reconnect needs no proactive reinstall; reconciliation flushing
// the stale rules and the resulting packet-ins do the work.
func (lb *LoadBalancer) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {}

// SwitchDown drops recorded decisions for flows whose edge rules lived
// on the dead switch. Decisions are not keyed by switch, so the pool
// simply re-picks per flow when traffic resumes; clearing keeps the
// map from pinning flows to backends that may have been drained while
// the switch was away.
func (lb *LoadBalancer) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	lb.mu.Lock()
	clear(lb.decisions)
	lb.mu.Unlock()
}

var _ controller.PacketInHandler = (*LoadBalancer)(nil)
var _ controller.SwitchHandler = (*LoadBalancer)(nil)
