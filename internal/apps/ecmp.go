package apps

import (
	"sync"

	"repro/internal/controller"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// ECMPRouting is the multipath sibling of Routing: where several
// equal-cost next hops exist toward a destination, it installs a
// select group so flows shard across them by flow hash — the fat-tree
// load-balancing discipline. Single-next-hop segments get plain output
// rules. Groups are installed over the wire via GroupMod.
type ECMPRouting struct {
	mu        sync.Mutex
	nextGroup uint32
	// groupFor caches (dpid, dst-mac) -> installed group id, so repeated
	// flows toward the same host reuse one group per switch.
	groupFor map[ecmpKey]uint32

	IdleTimeout uint16
	Priority    uint16
}

type ecmpKey struct {
	dpid uint64
	dst  packet.MAC
}

// NewECMPRouting returns the app.
func NewECMPRouting() *ECMPRouting {
	return &ECMPRouting{
		nextGroup:   0x0ec0000,
		groupFor:    make(map[ecmpKey]uint32),
		IdleTimeout: 300,
		Priority:    210, // above the plain Routing app
	}
}

// Name implements controller.App.
func (e *ECMPRouting) Name() string { return "ecmp-routing" }

// PacketIn implements controller.PacketInHandler.
func (e *ECMPRouting) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	var f packet.Frame
	if packet.Decode(ev.Msg.Data, &f) != nil {
		return false
	}
	if f.Eth.Dst.IsBroadcast() || f.Eth.Dst.IsMulticast() {
		return false
	}
	dst, ok := c.NIB().Host(f.Eth.Dst)
	if !ok {
		return false
	}
	snap := c.NIB().Topology()
	// Install along the shortest path; at every hop with ECMP
	// diversity, a select group spreads over all equal-cost next hops.
	path, ok := snap.Path(topo.NodeID(ev.DPID), topo.NodeID(dst.DPID))
	if !ok {
		return false
	}
	match := zof.MatchAll()
	match.Wildcards &^= zof.WEthDst
	match.EthDst = f.Eth.Dst

	// The whole path installs as one transaction: every hop's optional
	// GroupMod plus the FlowMod referencing it (staged in order, so the
	// group exists before the flow on each switch), committed across all
	// path switches atomically. A failed commit rolls the switches back
	// and drops the freshly allocated group ids from the cache, so the
	// next packet re-pushes groups under new ids instead of referencing
	// ones that never landed.
	txn := c.NewTxn()
	var newKeys []ecmpKey
	uncache := func() {
		if len(newKeys) == 0 {
			return
		}
		e.mu.Lock()
		for _, k := range newKeys {
			delete(e.groupFor, k)
		}
		e.mu.Unlock()
	}
	for i := len(path.Nodes) - 1; i >= 0; i-- {
		node := path.Nodes[i]
		if _, ok := c.Switch(uint64(node)); !ok {
			continue
		}
		var action zof.Action
		if uint64(node) == dst.DPID {
			action = zof.Output(dst.Port)
		} else {
			hops := snap.ECMPNextHops(node, topo.NodeID(dst.DPID))
			switch len(hops) {
			case 0:
				uncache()
				return false
			case 1:
				action = zof.Output(hops[0].Port)
			default:
				gid, installed := e.ensureGroup(uint64(node), f.Eth.Dst)
				if !installed {
					newKeys = append(newKeys, ecmpKey{uint64(node), f.Eth.Dst})
					gm := &zof.GroupMod{
						Command:   zof.GroupAdd,
						GroupType: zof.GroupTypeSelect,
						GroupID:   gid,
					}
					for _, hop := range hops {
						gm.Buckets = append(gm.Buckets, zof.GroupBucket{
							Weight:  1,
							Actions: []zof.Action{zof.Output(hop.Port)},
						})
					}
					txn.Group(uint64(node), gm)
				}
				action = zof.Group(gid)
			}
		}
		fm := &zof.FlowMod{
			Command:     zof.FlowAdd,
			Match:       match,
			Priority:    e.Priority,
			IdleTimeout: e.IdleTimeout,
			BufferID:    zof.NoBuffer,
			Actions:     []zof.Action{action},
		}
		if uint64(node) == ev.DPID {
			fm.BufferID = ev.Msg.BufferID
		}
		txn.Flow(uint64(node), fm)
	}
	if err := txn.Commit(); err != nil {
		uncache()
		return false
	}
	return true
}

// ensureGroup returns the group id for (dpid, dst), allocating a fresh
// id on first use; installed reports whether it already existed.
func (e *ECMPRouting) ensureGroup(dpid uint64, dst packet.MAC) (uint32, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := ecmpKey{dpid, dst}
	if gid, ok := e.groupFor[key]; ok {
		return gid, true
	}
	e.nextGroup++
	e.groupFor[key] = e.nextGroup
	return e.nextGroup, false
}

// LinkDown drops all cached groups and flows: paths recompute on the
// next packet (groups are re-pushed with fresh ids).
func (e *ECMPRouting) LinkDown(c *controller.Controller, ev controller.LinkDown) {
	e.mu.Lock()
	clear(e.groupFor)
	e.mu.Unlock()
	for _, sc := range c.Switches() {
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowDelete,
			Match: zof.MatchAll(), BufferID: zof.NoBuffer})
	}
}

// LinkUp implements controller.LinkHandler.
func (e *ECMPRouting) LinkUp(c *controller.Controller, ev controller.LinkUp) {}

// SwitchUp implements controller.SwitchHandler. A reconnected switch
// may have lost its group table (crash-restart) or be about to have
// stale flows reconciled away, so the cached group ids for it are
// invalid either way: drop them and let the next packet re-push groups
// with fresh ids under the new session.
func (e *ECMPRouting) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	if !ev.Reconnect {
		return
	}
	e.forget(ev.DPID)
}

// SwitchDown implements controller.SwitchHandler.
func (e *ECMPRouting) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	e.forget(ev.DPID)
}

func (e *ECMPRouting) forget(dpid uint64) {
	e.mu.Lock()
	for key := range e.groupFor {
		if key.dpid == dpid {
			delete(e.groupFor, key)
		}
	}
	e.mu.Unlock()
}

var _ controller.PacketInHandler = (*ECMPRouting)(nil)
var _ controller.LinkHandler = (*ECMPRouting)(nil)
var _ controller.SwitchHandler = (*ECMPRouting)(nil)
