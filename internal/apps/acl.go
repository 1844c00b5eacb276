package apps

import (
	"sync"

	"repro/internal/controller"
	"repro/internal/zof"
)

// ACL enforces deny rules network-wide: each rule is a match installed
// at maximum priority with an empty action list (drop) on every switch,
// present and future. Deny and Allow apply fleet-wide changes as one
// transaction: either every switch enforces the rule or none does, and
// a failed commit undoes the map change so the security posture never
// silently diverges from what the caller was told.
type ACL struct {
	mu    sync.Mutex
	rules map[uint64]zof.Match // id -> match
	next  uint64
}

// NewACL returns the app.
func NewACL() *ACL {
	return &ACL{rules: make(map[uint64]zof.Match)}
}

// Name implements controller.App.
func (a *ACL) Name() string { return "acl" }

// Deny installs a network-wide drop rule as one transaction, returning
// its id, or 0 if any switch refused (in which case no switch enforces
// the rule and the rule set is unchanged).
func (a *ACL) Deny(c *controller.Controller, m zof.Match) uint64 {
	a.mu.Lock()
	a.next++
	id := a.next
	a.mu.Unlock()
	txn := c.NewTxn()
	for _, sc := range c.Switches() {
		txn.Flow(sc.DPID(), aclRule(m, id))
	}
	if err := txn.Commit(); err != nil {
		return 0
	}
	a.mu.Lock()
	a.rules[id] = m
	a.mu.Unlock()
	return id
}

// Allow removes a previously installed deny rule from every switch as
// one transaction. On a failed commit the rule is kept (the rollback
// restored it on every switch) and false is returned.
func (a *ACL) Allow(c *controller.Controller, id uint64) bool {
	a.mu.Lock()
	m, ok := a.rules[id]
	a.mu.Unlock()
	if !ok {
		return false
	}
	txn := c.NewTxn()
	for _, sc := range c.Switches() {
		txn.Flow(sc.DPID(), &zof.FlowMod{
			Command:  zof.FlowDeleteStrict,
			Match:    m,
			Priority: aclPriority,
			BufferID: zof.NoBuffer,
		})
	}
	if err := txn.Commit(); err != nil {
		return false
	}
	a.mu.Lock()
	delete(a.rules, id)
	a.mu.Unlock()
	return true
}

// aclRule is deny rule id's FlowAdd: m at the top of the ladder, no
// actions (drop), filed under the ACL's owner id.
func aclRule(m zof.Match, id uint64) *zof.FlowMod {
	return &zof.FlowMod{
		Command:  zof.FlowAdd,
		Match:    m,
		Priority: aclPriority,
		Cookie:   controller.OwnerCookie(ownerACL, id),
		BufferID: zof.NoBuffer,
	}
}

// SwitchUp pushes the rule set to newly arrived switches.
func (a *ACL) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return
	}
	a.mu.Lock()
	rules := make(map[uint64]zof.Match, len(a.rules))
	for id, m := range a.rules {
		rules[id] = m
	}
	a.mu.Unlock()
	for id, m := range rules {
		_ = sc.InstallFlow(aclRule(m, id))
	}
}

// SwitchDown implements controller.SwitchHandler.
func (a *ACL) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {}

// Rules returns the number of active deny rules.
func (a *ACL) Rules() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rules)
}

var _ controller.SwitchHandler = (*ACL)(nil)
