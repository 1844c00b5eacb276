package apps

import (
	"sync"

	"repro/internal/controller"
	"repro/internal/zof"
)

// NFSteer is one steering rule: traffic matching Match on DPID's
// TableID is walked through StageIDs (in order) and then handed the
// Then actions. The stage ids must already be registered on the
// datapath — the switch rejects a FlowMod referencing an unknown
// stage, and the txn commit fails.
type NFSteer struct {
	DPID     uint64
	TableID  uint8
	Priority uint16
	Match    zof.Match
	StageIDs []uint32
	Then     []zof.Action
	Cookie   uint64 // the low 40 bits are kept; the owner field is NFPolicy's
}

func (s NFSteer) flowMod() *zof.FlowMod {
	acts := make([]zof.Action, 0, len(s.StageIDs)+len(s.Then))
	for _, id := range s.StageIDs {
		acts = append(acts, zof.NF(id))
	}
	acts = append(acts, s.Then...)
	return &zof.FlowMod{
		Command:  zof.FlowAdd,
		TableID:  s.TableID,
		Match:    s.Match,
		Priority: s.Priority,
		Cookie:   controller.OwnerCookie(ownerNF, s.Cookie),
		BufferID: zof.NoBuffer,
		Actions:  acts,
	}
}

// NFPolicy owns the steering rules that direct traffic into stateful-NF
// stages. The rules themselves are ordinary audited intent — the
// auditor reinstalls them if they drift — while the state the stages
// accumulate (conntrack entries, NAT bindings) is packet-driven and
// deliberately outside the audit contract; it is observed through the
// NF introspection API instead.
type NFPolicy struct {
	mu     sync.Mutex
	steers []NFSteer
}

// NewNFPolicy returns the app.
func NewNFPolicy() *NFPolicy {
	return &NFPolicy{}
}

// Name implements controller.App.
func (a *NFPolicy) Name() string { return "nfpolicy" }

// Steer installs the given steering rules as one transaction: either
// every rule lands on its switch or none does. On success they become
// part of the policy pushed to reconnecting switches.
func (a *NFPolicy) Steer(c *controller.Controller, steers ...NFSteer) error {
	txn := c.NewTxn()
	for _, s := range steers {
		txn.Flow(s.DPID, s.flowMod())
	}
	if err := txn.Commit(); err != nil {
		return err
	}
	a.mu.Lock()
	a.steers = append(a.steers, steers...)
	a.mu.Unlock()
	return nil
}

// SwitchUp reinstalls this switch's steering rules after a reconnect.
func (a *NFPolicy) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	sc, ok := c.Switch(ev.DPID)
	if !ok {
		return
	}
	a.mu.Lock()
	var mine []NFSteer
	for _, s := range a.steers {
		if s.DPID == ev.DPID {
			mine = append(mine, s)
		}
	}
	a.mu.Unlock()
	for _, s := range mine {
		_ = sc.InstallFlow(s.flowMod())
	}
}

// SwitchDown implements controller.SwitchHandler.
func (a *NFPolicy) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {}

// Rules returns the number of installed steering rules.
func (a *NFPolicy) Rules() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.steers)
}

var _ controller.SwitchHandler = (*NFPolicy)(nil)
