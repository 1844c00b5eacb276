package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// diamond is the four-switch graph 1-2-4, 1-3-4.
func diamond() *topo.Graph {
	g := topo.New()
	g.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 1000})
	g.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 1000})
	return g
}

// linkDownSeen counts LinkDowns. Listed after the routing app, it sees
// each one after routing's handler has sent its flush.
type linkDownSeen struct{ n atomic.Int32 }

func (*linkDownSeen) Name() string                                           { return "link-down-seen" }
func (*linkDownSeen) LinkUp(*controller.Controller, controller.LinkUp)       {}
func (l *linkDownSeen) LinkDown(*controller.Controller, controller.LinkDown) { l.n.Add(1) }

// holding counts the switches whose tables hold a rule at m and prio,
// and the switches whose intent records one.
func holding(t *testing.T, n *Network, m zof.Match, prio uint16) (onSwitch, inStore int) {
	t.Helper()
	for node, sw := range n.Emu.Switches {
		sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 1,
			func(rep zof.Message, _ uint32) {
				for _, f := range rep.(*zof.StatsReply).Flows {
					if f.Match == m && f.Priority == prio {
						onSwitch++
					}
				}
			})
		if _, ok := n.Controller.IntendedFlows(uint64(node))[controller.FlowKey{Match: m, Priority: prio}]; ok {
			inStore++
		}
	}
	return onSwitch, inStore
}

// TestRoutingLinkDownKeepsOtherOwners runs each routing app beside an
// ACL deny, L2 learning and an NF steer rule on every switch. A link
// failure flushes the routing app's rules and no other app's: after
// the re-routed ping the deny and the steer rules are still on every
// switch and in its intent, and the denied traffic is still dropped.
func TestRoutingLinkDownKeepsOtherOwners(t *testing.T) {
	for _, routing := range []controller.App{apps.NewRouting(), apps.NewECMPRouting()} {
		t.Run(routing.Name(), func(t *testing.T) {
			acl, nfp, seen := apps.NewACL(), apps.NewNFPolicy(), &linkDownSeen{}
			n, err := Start(Options{
				Graph: diamond(),
				Apps:  []controller.App{acl, routing, apps.NewLearningSwitch(), nfp, seen},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Stop()
			if err := n.DiscoverLinks(4, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
			h4, _ := n.AddHost("h4", 4, ip(10, 0, 0, 4))
			pingOK(t, h1, h4.IP, 5*time.Second)

			deny := zof.MatchAll()
			deny.Wildcards &^= zof.WEtherType | zof.WIPProto | zof.WTPDst
			deny.EtherType, deny.IPProto, deny.TPDst = packet.EtherTypeIPv4, packet.ProtoUDP, 7777
			if acl.Deny(n.Controller, deny) == 0 {
				t.Fatal("deny refused")
			}
			steer := zof.MatchAll()
			steer.Wildcards &^= zof.WEtherType | zof.WIPProto | zof.WTPDst
			steer.EtherType, steer.IPProto, steer.TPDst = packet.EtherTypeIPv4, packet.ProtoTCP, 5555
			var steers []apps.NFSteer
			for node, sw := range n.Emu.Switches {
				if err := sw.RegisterStage(1, nf.NewConntrack(nf.ConntrackConfig{})); err != nil {
					t.Fatal(err)
				}
				steers = append(steers, apps.NFSteer{DPID: uint64(node), Priority: 500, Match: steer,
					StageIDs: []uint32{1}, Then: []zof.Action{zof.Output(1)}, Cookie: 0x5})
			}
			if err := nfp.Steer(n.Controller, steers...); err != nil {
				t.Fatal(err)
			}
			if err := n.Controller.Barrier(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]struct {
				m    zof.Match
				prio uint16
			}{"deny": {deny, 60000}, "steer": {steer, 500}} {
				if on, in := holding(t, n, r.m, r.prio); on != 4 || in != 4 {
					t.Fatalf("before the failure the %s rule is on %d of 4 switches and in %d intents", name, on, in)
				}
			}

			if err := n.Emu.FailLink(topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return seen.n.Load() >= 1 })
			pingOK(t, h1, h4.IP, 5*time.Second)
			if err := n.Controller.Barrier(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]struct {
				m    zof.Match
				prio uint16
			}{"deny": {deny, 60000}, "steer": {steer, 500}} {
				if on, in := holding(t, n, r.m, r.prio); on != 4 || in != 4 {
					t.Errorf("after the failure the %s rule is on %d of 4 switches and in %d intents", name, on, in)
				}
			}

			// The re-routed path carries UDP, and the deny still drops 7777:
			// both datagrams take one path in order, so once the one to 8888
			// is in, an undropped one to 7777 would be in too.
			var got7777, got8888 atomic.Bool
			h4.OnUDP = func(_ packet.IPv4Addr, _, dstPort uint16, _ []byte) {
				got7777.CompareAndSwap(false, dstPort == 7777)
				got8888.CompareAndSwap(false, dstPort == 8888)
			}
			h1.SendUDP(h4.IP, 5, 7777, []byte("denied"))
			h1.SendUDP(h4.IP, 5, 8888, []byte("allowed"))
			waitFor(t, 2*time.Second, got8888.Load)
			if got7777.Load() {
				t.Error("the datagram to 7777 crossed the re-routed path")
			}
		})
	}
}

// TestECMPRoutingLinkDownDeletesGroups fails three stub links hanging
// off the diamond one after another. Each LinkDown leaves the diamond's
// equal-cost paths as they were, so the next pings re-push a select
// group at each end: the groups the LinkDown dropped from the app's
// cache must go from the switches and from intent, not pile up there.
func TestECMPRoutingLinkDownDeletesGroups(t *testing.T) {
	g := diamond()
	stubs := []topo.LinkKey{{A: 4, B: 5, APort: 3, BPort: 1}, {A: 4, B: 6, APort: 4, BPort: 1}, {A: 4, B: 7, APort: 5, BPort: 1}}
	for _, k := range stubs {
		g.AddLink(topo.Link{A: k.A, B: k.B, APort: k.APort, BPort: k.BPort, Capacity: 1000})
	}
	seen := &linkDownSeen{}
	n, err := Start(Options{
		Graph: g,
		Apps:  []controller.App{apps.NewECMPRouting(), apps.NewLearningSwitch(), seen},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DiscoverLinks(7, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h1, _ := n.AddHost("h1", 1, ip(10, 0, 0, 1))
	h4, _ := n.AddHost("h4", 4, ip(10, 0, 0, 4))
	groups := func() (onSwitch, inStore int) {
		if err := n.Controller.Barrier(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		for node, sw := range n.Emu.Switches {
			onSwitch += sw.GroupCount()
			inStore += len(n.Controller.FlowStore(uint64(node)).Groups())
		}
		return onSwitch, inStore
	}
	pingOK(t, h1, h4.IP, 5*time.Second)
	pingOK(t, h4, h1.IP, 5*time.Second)
	on0, in0 := groups()
	if on0 != 2 || in0 != 2 {
		t.Fatalf("warm diamond holds %d groups on its switches and %d in intent, want one at each end", on0, in0)
	}
	for i, k := range stubs {
		if err := n.Emu.FailLink(k); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return seen.n.Load() >= int32(i+1) })
		pingOK(t, h1, h4.IP, 5*time.Second)
		pingOK(t, h4, h1.IP, 5*time.Second)
		if on, in := groups(); on > on0 || in > in0 {
			t.Fatalf("after LinkDown %d: %d groups on the switches and %d in intent, were %d and %d", i+1, on, in, on0, in0)
		}
	}
}
