// Anti-entropy repair: the auditor periodically diffs each switch's
// actual flow table (FlowStats) against the controller's intended
// state (FlowStore) and repairs drift — re-adding missing or mutated
// rules and deleting alien ones. Ordering is what makes the diff
// sound: the stats are fetched BEFORE the store snapshot, and every
// mod is recorded in the store before it is sent, so a flow present on
// the switch but absent from the store cannot be an install still in
// flight — it is genuine drift (or an app's racing delete, which the
// repair then merely completes).
package controller

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/zof"
)

// AuditStats are the anti-entropy auditor's counters.
type AuditStats struct {
	// Audits counts completed per-switch audit passes.
	Audits obs.Counter
	// Failures counts passes abandoned because the stats query or the
	// repair fence failed, or the switch rejected a repair.
	Failures obs.Counter
	// Skipped counts passes skipped because a transaction held the
	// switch.
	Skipped obs.Counter
	// Missing counts intended flows found absent and re-added.
	Missing obs.Counter
	// Mismatched counts flows present with the wrong cookie, actions or
	// timeouts, re-added (FlowAdd replaces in place).
	Mismatched obs.Counter
	// Alien counts flows present on the switch with no intent backing
	// them, deleted.
	Alien obs.Counter
	// Expired counts intended entries with idle/hard timeouts that were
	// gone from the switch and therefore retired from the store rather
	// than repaired.
	Expired obs.Counter
}

// AuditReport summarizes one audit pass over one switch.
type AuditReport struct {
	DPID       uint64
	Missing    int // intended, absent, re-added
	Mismatched int // present but wrong; re-added
	Alien      int // present, unintended; deleted
	Expired    int // intended-with-timeout, absent; retired from store
}

// Repairs is the number of corrective mods the pass issued.
func (r AuditReport) Repairs() int { return r.Missing + r.Mismatched + r.Alien }

// ErrAuditBusy reports that an audit pass was skipped because a
// transaction held the switch.
var ErrAuditBusy = errors.New("controller: switch busy in a transaction")

// AuditSwitch runs one anti-entropy pass over sc: fetch actual flows,
// diff against intended, repair. Repairs are fenced raw (no re-stamping
// — they restore the recorded wire state verbatim), and a rejected
// repair fails the pass. Intended flows carrying idle/hard timeouts
// that are gone from the switch are treated as legitimately expired and
// retired from the store instead of re-added, so reactive rules do not
// resurrect forever. Returns ErrAuditBusy without touching anything
// when a transaction holds the switch.
func (c *Controller) AuditSwitch(sc *SwitchConn) (AuditReport, error) {
	rep := AuditReport{DPID: sc.dpid}
	if !sc.active.Load() {
		// Not activated: this instance does not own the switch, and
		// repairing a standby's empty intent against the master's live
		// table would delete every rule as "alien".
		c.auditStats.Skipped.Inc()
		return rep, ErrAuditBusy
	}
	if sc.reconciling.Load() {
		// Auditing before the post-reconnect stale-epoch flush would
		// re-add intent under cookies the reconciler is about to purge
		// — from the switch and the store both. Wait it out.
		c.auditStats.Skipped.Inc()
		return rep, ErrAuditBusy
	}
	if !sc.txnMu.TryLock() {
		c.auditStats.Skipped.Inc()
		return rep, ErrAuditBusy
	}
	defer sc.txnMu.Unlock()

	sr, err := sc.Stats(&zof.StatsRequest{
		Kind:    zof.StatsFlow,
		TableID: 0xff,
		Match:   zof.MatchAll(),
	}, auditTimeout)
	if err != nil {
		c.auditStats.Failures.Inc()
		return rep, err
	}
	intended := sc.store.Flows()
	actual := make(map[FlowKey]*zof.FlowStats, len(sr.Flows))
	for i := range sr.Flows {
		f := &sr.Flows[i]
		actual[FlowKey{f.TableID, f.Match, f.Priority}] = f
	}

	var repairs []zof.Message
	for k, want := range intended {
		got, ok := actual[k]
		if !ok {
			if want.IdleTimeout > 0 || want.HardTimeout > 0 {
				sc.store.RemoveIfCookie(k, want.Cookie)
				rep.Expired++
				continue
			}
			rep.Missing++
			repairs = append(repairs, want.flowMod(k))
			continue
		}
		if got.Cookie != want.Cookie ||
			got.IdleTimeout != want.IdleTimeout ||
			got.HardTimeout != want.HardTimeout ||
			!actionsEqual(got.Actions, want.Actions) {
			rep.Mismatched++
			repairs = append(repairs, want.flowMod(k))
		}
	}
	for k, got := range actual {
		if _, ok := intended[k]; ok {
			continue
		}
		rep.Alien++
		// Cookie-filtered strict delete: if an app installs intent for
		// this key while the repair is in flight, the new rule's cookie
		// differs and the delete cannot take it out.
		repairs = append(repairs, &zof.FlowMod{
			Command:  zof.FlowDeleteStrict,
			TableID:  k.TableID,
			Match:    k.Match,
			Priority: k.Priority,
			Cookie:   got.Cookie,
			Flags:    zof.FlagCookieFilter,
			BufferID: zof.NoBuffer,
		})
	}

	if len(repairs) > 0 {
		r := fenceAll([]*SwitchConn{sc}, [][]zof.Message{repairs}, auditTimeout)[0]
		if err := joinRejected(r.rejected, r.err); err != nil {
			c.auditStats.Failures.Inc()
			return rep, err
		}
	}
	c.auditStats.Audits.Inc()
	c.auditStats.Missing.Add(uint64(rep.Missing))
	c.auditStats.Mismatched.Add(uint64(rep.Mismatched))
	c.auditStats.Alien.Add(uint64(rep.Alien))
	c.auditStats.Expired.Add(uint64(rep.Expired))
	return rep, nil
}

func actionsEqual(a, b []zof.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// auditLoop drives periodic anti-entropy passes over every connected
// switch.
func (c *Controller) auditLoop() {
	defer c.loopWG.Done()
	tick := time.NewTicker(c.cfg.AuditInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			for _, sc := range c.Switches() {
				if rep, err := c.AuditSwitch(sc); err != nil {
					if !errors.Is(err, ErrAuditBusy) {
						c.cfg.Logf("audit of %#x: %v", sc.dpid, err)
					}
				} else if rep.Repairs() > 0 {
					c.cfg.Logf("audit of %#x repaired drift: %d missing, %d mismatched, %d alien",
						sc.dpid, rep.Missing, rep.Mismatched, rep.Alien)
				}
			}
		}
	}
}

// IntendedFlows snapshots the intended flows recorded for dpid (nil if
// the DPID has never connected).
func (c *Controller) IntendedFlows(dpid uint64) map[FlowKey]IntendedFlow {
	c.mu.Lock()
	fs := c.stores[dpid]
	c.mu.Unlock()
	if fs == nil {
		return nil
	}
	return fs.Flows()
}
