package controller

import (
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/zof"
)

// discovery implements LLDP-based link discovery: the controller
// packet-outs an LLDP frame on every switch port; when it arrives as a
// packet-in on a neighboring switch, the (src, dst) pair names a live
// directed link. Links not re-confirmed within maxAge rounds are
// declared down.
type discovery struct {
	c *Controller

	mu   sync.Mutex
	seen map[linkID]time.Time
}

type linkID struct {
	srcDPID uint64
	srcPort uint32
	dstDPID uint64
	dstPort uint32
}

// canonical orders the ID so both directions coalesce.
func (l linkID) canonical() linkID {
	if l.srcDPID < l.dstDPID || (l.srcDPID == l.dstDPID && l.srcPort <= l.dstPort) {
		return l
	}
	return linkID{l.dstDPID, l.dstPort, l.srcDPID, l.srcPort}
}

// run probes every interval and ages out the links that stopped
// confirming, until the controller closes.
func (d *discovery) run(interval time.Duration) {
	defer d.c.loopWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.c.quit:
			return
		case <-t.C:
			d.Probe()
			d.expire(3 * interval)
		}
	}
}

// Probe sends one LLDP frame out every port of every switch, batching
// the per-switch burst into a single coalesced write. Exported through
// the controller for tests and on-demand discovery.
func (d *discovery) Probe() {
	v := d.c.nib.current()
	for dpid, sc := range v.sessions {
		var burst []zof.Message
		for _, p := range v.features[dpid].Ports {
			if !p.Up() {
				continue
			}
			burst = append(burst, &zof.PacketOut{
				BufferID: zof.NoBuffer,
				Actions:  []zof.Action{zof.Output(p.No)},
				Data:     buildLLDP(dpid, p.No),
			})
		}
		if len(burst) > 0 {
			_ = sc.SendBatch(burst...)
		}
	}
}

// Probe triggers one round of LLDP probing immediately.
func (c *Controller) Probe() { c.disc.Probe() }

func buildLLDP(dpid uint64, port uint32) []byte {
	b := packet.NewBuffer(64)
	l := packet.LLDP{ChassisID: dpid, PortID: port, TTL: 120}
	l.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.LLDPMulticast,
		Src:       packet.MACFromUint64(dpid<<16 | uint64(port)),
		EtherType: packet.EtherTypeLLDP,
	}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// handlePacketIn consumes LLDP packet-ins, updating the NIB. Returns
// true if the event was LLDP (and so must not reach apps).
func (d *discovery) handlePacketIn(pi PacketInEvent) bool {
	var f packet.Frame
	if packet.Decode(pi.Msg.Data, &f) != nil {
		return false
	}
	if !f.Has(packet.LayerLLDP) {
		return false
	}
	id := linkID{f.LLDP.ChassisID, f.LLDP.PortID, pi.DPID, pi.Msg.InPort}.canonical()
	d.mu.Lock()
	_, known := d.seen[id]
	d.seen[id] = time.Now()
	d.mu.Unlock()
	if d.c.nib.addLink(id.srcDPID, id.srcPort, id.dstDPID, id.dstPort) || !known {
		d.c.post(LinkUp{SrcDPID: id.srcDPID, SrcPort: id.srcPort,
			DstDPID: id.dstDPID, DstPort: id.dstPort})
	}
	return true
}

// handlePortStatus declares links over a downed port lost immediately.
func (d *discovery) handlePortStatus(ps PortStatusEvent) {
	if ps.Msg.Port.Up() {
		return
	}
	d.lose(func(id linkID, _ time.Time) bool {
		return (id.srcDPID == ps.DPID && id.srcPort == ps.Msg.Port.No) ||
			(id.dstDPID == ps.DPID && id.dstPort == ps.Msg.Port.No)
	})
}

// expire ages out links that stopped confirming.
func (d *discovery) expire(maxAge time.Duration) {
	cutoff := time.Now().Add(-maxAge)
	d.lose(func(_ linkID, last time.Time) bool { return last.Before(cutoff) })
}

// lose forgets every seen link that lost reports lost, removes it from
// the NIB and posts its LinkDown.
func (d *discovery) lose(lost func(id linkID, last time.Time) bool) {
	d.mu.Lock()
	var ids []linkID
	for id, last := range d.seen {
		if lost(id, last) {
			ids = append(ids, id)
			delete(d.seen, id)
		}
	}
	d.mu.Unlock()
	for _, id := range ids {
		d.c.nib.removeLink(id.srcDPID, id.srcPort, id.dstDPID, id.dstPort)
		d.c.post(LinkDown{SrcDPID: id.srcDPID, SrcPort: id.srcPort,
			DstDPID: id.dstDPID, DstPort: id.dstPort})
	}
}
