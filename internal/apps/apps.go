// Package apps provides the standard zen control applications: L2
// learning with storm-safe flooding, reactive shortest-path routing,
// ACL enforcement, VIP load balancing and statistics collection. Each
// is an ordinary controller.App — the keynote's point that network
// control is just software.
package apps

import (
	"repro/internal/controller"
	"repro/internal/zof"
)

// The priority ladder the apps install on: a deny beats a VIP rewrite,
// which beats a multipath route, which beats a shortest-path route,
// which beats an L2 learned flow. The idle timeouts are in seconds; no
// app sets a hard timeout.
const (
	aclPriority      = 60000
	lbPriority       = 30000
	ecmpPriority     = 210
	routingPriority  = 200
	learningPriority = 100

	learningIdle = 60
	routingIdle  = 300 // routing and ECMP routing
	lbIdle       = 60
)

// The owner ids each app files its rules under (controller.OwnerCookie),
// so that a flush can name one app's rules; 0 is no owner.
const (
	ownerACL uint8 = 1 + iota
	ownerLB
	ownerECMP
	ownerRouting
	ownerLearning
	ownerNF
)

// flushOwned deletes owner's rules from every switch and leaves every
// other app's. The apps whose rules follow Topology() call it on a
// LinkDown, so their next packet-in routes on the new graph.
func flushOwned(c *controller.Controller, owner uint8) {
	for _, sc := range c.Switches() {
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowDelete, Match: zof.MatchAll(), BufferID: zof.NoBuffer,
			Cookie: controller.OwnerCookie(owner, 0), CookieMask: controller.CookieOwnerMask})
	}
}
