// Package apps provides the standard zen control applications: L2
// learning with storm-safe flooding, reactive shortest-path routing,
// ACL enforcement, VIP load balancing and statistics collection. Each
// is an ordinary controller.App — the keynote's point that network
// control is just software.
package apps

import (
	"slices"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// LearningSwitch is the classic reactive L2 app: learn source MAC
// locations, forward to learned destinations with installed flows,
// flood unknowns. Floods are restricted to a spanning tree of the
// discovered topology plus host ports, so looped topologies do not
// storm.
type LearningSwitch struct {
	mu          sync.Mutex
	macs        map[uint64]map[packet.MAC]uint32 // dpid -> mac -> port
	IdleTimeout uint16                           // seconds; default 60
	HardTimeout uint16

	// installs counts flows installed toward learned destinations;
	// floods counts spanning-tree packet-out floods. Published as
	// apps.l2-learning.* via RegisterMetrics.
	installs obs.Counter
	floods   obs.Counter
}

// NewLearningSwitch returns the app.
func NewLearningSwitch() *LearningSwitch {
	return &LearningSwitch{macs: make(map[uint64]map[packet.MAC]uint32), IdleTimeout: 60}
}

// Name implements controller.App.
func (l *LearningSwitch) Name() string { return "l2-learning" }

// RegisterMetrics implements controller.MetricsRegistrant.
func (l *LearningSwitch) RegisterMetrics(sc obs.Scope) {
	sc.RegisterCounter("installs", &l.installs)
	sc.RegisterCounter("floods", &l.floods)
	sc.RegisterFunc("macs", func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		n := 0
		for _, t := range l.macs {
			n += len(t)
		}
		return int64(n)
	})
}

// SwitchUp implements controller.SwitchHandler.
func (l *LearningSwitch) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {}

// SwitchDown forgets everything learned at the departed switch.
func (l *LearningSwitch) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	l.mu.Lock()
	delete(l.macs, ev.DPID)
	l.mu.Unlock()
}

// PacketIn implements controller.PacketInHandler.
func (l *LearningSwitch) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	var f packet.Frame
	if packet.Decode(ev.Msg.Data, &f) != nil {
		return false
	}
	l.mu.Lock()
	table := l.macs[ev.DPID]
	if table == nil {
		table = make(map[packet.MAC]uint32)
		l.macs[ev.DPID] = table
	}
	// Learn the source — but never from inter-switch ports, where the
	// same MAC legitimately appears as transit.
	if !c.NIB().IsSwitchPort(ev.DPID, ev.Msg.InPort) {
		table[f.Eth.Src] = ev.Msg.InPort
	}
	outPort, known := table[f.Eth.Dst]
	l.mu.Unlock()

	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return true
	}
	if known && !f.Eth.Dst.IsMulticast() {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthDst | zof.WEthSrc
		m.EthDst = f.Eth.Dst
		m.EthSrc = f.Eth.Src
		_ = sc.InstallFlow(&zof.FlowMod{
			Command:     zof.FlowAdd,
			Match:       m,
			Priority:    100,
			IdleTimeout: l.IdleTimeout,
			HardTimeout: l.HardTimeout,
			BufferID:    ev.Msg.BufferID,
			Actions:     []zof.Action{zof.Output(outPort)},
		})
		l.installs.Inc()
		return true
	}
	// Unknown or multicast: flood along the spanning tree.
	l.floodPacket(c, sc, ev)
	l.floods.Inc()
	return true
}

// floodPacket packet-outs to every safe flood port.
func (l *LearningSwitch) floodPacket(c *controller.Controller, sc *controller.SwitchConn, ev controller.PacketInEvent) {
	ports := FloodPorts(c, ev.DPID)
	var acts []zof.Action
	for _, p := range ports {
		if p != ev.Msg.InPort {
			acts = append(acts, zof.Output(p))
		}
	}
	if len(acts) == 0 {
		return
	}
	_ = sc.PacketOut(&zof.PacketOut{
		BufferID: ev.Msg.BufferID,
		InPort:   ev.Msg.InPort,
		Actions:  acts,
		Data:     ev.Msg.Data,
	})
}

// FloodPorts returns the ports of dpid that are safe to flood: host
// (non-switch) ports plus inter-switch ports on the spanning forest of
// the discovered topology (memoised in the published snapshot). Before
// discovery has seen any links, every up port qualifies (the topology
// is then presumed loop-free).
func FloodPorts(c *controller.Controller, dpid uint64) []uint32 {
	nib := c.NIB()
	onTree := nib.Topology().FloodPorts(topo.NodeID(dpid))
	var out []uint32
	for _, p := range nib.Ports(dpid) {
		if !p.Up() {
			continue
		}
		// Inter-switch: only if on the spanning forest.
		if !nib.IsSwitchPort(dpid, p.No) || slices.Contains(onTree, p.No) {
			out = append(out, p.No)
		}
	}
	return out
}

// Learned reports the port a MAC was learned on at a switch (tests).
func (l *LearningSwitch) Learned(dpid uint64, mac packet.MAC) (uint32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.macs[dpid][mac]
	return p, ok
}

var _ controller.PacketInHandler = (*LearningSwitch)(nil)
var _ controller.SwitchHandler = (*LearningSwitch)(nil)

// statsDeadline is the default synchronous request timeout apps use.
const statsDeadline = 2 * time.Second
