// Package apps provides the standard zen control applications: L2
// learning with storm-safe flooding, reactive shortest-path routing,
// ACL enforcement, VIP load balancing and statistics collection. Each
// is an ordinary controller.App — the keynote's point that network
// control is just software.
package apps

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
