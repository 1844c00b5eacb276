// Anti-entropy repair: the auditor periodically diffs each switch's
// actual flow table (FlowStats) against the controller's intended
// state (FlowStore) and repairs drift — re-adding missing or mutated
// rules and deleting alien ones. Ordering is what makes the diff
// sound: the stats are fetched BEFORE the store snapshot, and every
// mod is recorded in the store before it is sent, so a flow present on
// the switch but absent from the store cannot be an install still in
// flight — it is genuine drift (or an app's racing delete, which the
// repair then merely completes). A session's first pass, run once the
// apps have handled its SwitchUp, is the same diff plus one rule: it
// also flushes what an earlier session left behind (see auditDiff).
package controller

import (
	"errors"
	"slices"
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
	// switch, the session was inactive, or its first pass had not run.
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
	Stale      int // first pass only: present under another epoch; deleted
}

// Repairs is the number of corrective mods the pass issued.
func (r AuditReport) Repairs() int { return r.Missing + r.Mismatched + r.Alien + r.Stale }

// ErrAuditBusy reports that an audit pass was skipped: a transaction
// held the switch, or the session was inactive or not yet reconciled.
var ErrAuditBusy = errors.New("controller: switch busy in a transaction")

// AuditSwitch runs one anti-entropy pass over sc (see audit). Returns
// ErrAuditBusy without touching anything when a transaction holds the
// switch, or while the session's first pass has not yet run.
func (c *Controller) AuditSwitch(sc *SwitchConn) (AuditReport, error) {
	// Inactive: a standby's empty intent would delete the master's
	// live table as "alien". Before the first pass, a SwitchUp handler
	// may still be reinstalling: a pass would re-add old-epoch intent
	// the switch lost, which the first pass then retires from switch
	// and store both.
	if !sc.active.Load() || sc.reconciling.Load() || !sc.txnMu.TryLock() {
		c.auditStats.Skipped.Inc()
		return AuditReport{DPID: sc.dpid}, ErrAuditBusy
	}
	defer sc.txnMu.Unlock()
	return c.audit(sc, false)
}

// startFirstPass runs sc's first audit pass in the background once
// every app has handled the session's SwitchUp (at once if dispatch
// shed it), so its listing follows their installs on the ordered
// stream. It waits out a transaction rather than skipping, and drops
// the reconciling gate however it ends. loopWG counts it, safely from
// both callers: a dispatch worker, which loopWG already counts, and
// post shedding registerSwitch's SwitchUp under mu, before Close can
// wait.
func (c *Controller) startFirstPass(sc *SwitchConn) {
	c.loopWG.Add(1)
	go func() {
		defer c.loopWG.Done()
		defer sc.reconciling.Store(false)
		sc.txnMu.Lock()
		defer sc.txnMu.Unlock()
		rep, err := c.audit(sc, true)
		if err != nil {
			c.cfg.Logf("first audit of %#x: %v", sc.dpid, err)
			return
		}
		c.liveness.Reconciles.Inc()
		if rep.Stale > 0 {
			c.cfg.Logf("first audit of %#x: flushed %d stale flows (epoch != %d)", sc.dpid, rep.Stale, sc.epoch)
		}
	}()
}

// audit is one pass over sc, whose txnMu the caller holds: list the
// switch's flows, diff them against the store (auditDiff), retire what
// the diff retires, and fence the repairs — raw, with no re-stamping:
// they restore the recorded wire state verbatim. A rejected repair
// fails the pass. Retirements precede the send, as every record does.
func (c *Controller) audit(sc *SwitchConn, first bool) (AuditReport, error) {
	sr, err := sc.Stats(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, reconcileTimeout)
	if err != nil {
		c.auditStats.Failures.Inc()
		return AuditReport{DPID: sc.dpid}, err
	}
	rep, repairs, retire := auditDiff(sc.store.Flows(), sr.Flows, sc.epoch, first)
	rep.DPID = sc.dpid
	for k, cookie := range retire {
		sc.store.RemoveIfCookie(k, cookie)
	}
	// Counted as sent, not behind the barrier: a reader that sees the
	// switch flushed finds the count already there.
	c.liveness.StaleFlows.Add(uint64(rep.Stale))
	if len(repairs) > 0 {
		r := fenceAll([]*SwitchConn{sc}, [][]zof.Message{repairs}, reconcileTimeout)[0]
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

// auditDiff is an audit pass's decision, with no I/O: the repairs that
// bring the switch's listing actual to intended, and the intended keys
// to retire instead, each with the cookie it must still carry
// (FlowStore.RemoveIfCookie). Intent with a timeout that the switch no
// longer holds expired there: it is retired, not re-added. On a first
// pass, an entry held under another epoch's cookie is an earlier
// session's leftover: it is deleted, and its intent retired if the
// store holds it under that cookie — no app re-asserted it. Intent the
// switch lost is re-added whatever its epoch. Deletes are strict and
// cookie-filtered, so none removes a rule reinstalled while it is in
// flight, and go ahead of adds: a stale entry and the intent that
// replaces it share a key.
func auditDiff(intended map[FlowKey]IntendedFlow, actual []zof.FlowStats, epoch uint64, first bool) (rep AuditReport, repairs []zof.Message, retire map[FlowKey]uint64) {
	retire = make(map[FlowKey]uint64)
	stale := func(f *zof.FlowStats) bool { return first && CookieEpoch(f.Cookie) != epoch }
	held := make(map[FlowKey]*zof.FlowStats, len(actual))
	var dels, adds []zof.Message
	for i := range actual {
		f := &actual[i]
		k := FlowKey{f.TableID, f.Match, f.Priority}
		held[k] = f
		if stale(f) {
			rep.Stale++
			dels = append(dels, k.deleteCookie(f.Cookie))
		} else if _, ok := intended[k]; !ok {
			rep.Alien++
			dels = append(dels, k.deleteCookie(f.Cookie))
		}
	}
	for k, want := range intended {
		got, ok := held[k]
		if ok && stale(got) {
			if got.Cookie == want.Cookie {
				retire[k] = want.Cookie
				continue
			}
			ok = false // deleted above
		}
		switch {
		case !ok && (want.IdleTimeout > 0 || want.HardTimeout > 0):
			rep.Expired++
			retire[k] = want.Cookie
		case !ok:
			rep.Missing++
			adds = append(adds, want.flowMod(k))
		case got.Cookie != want.Cookie || got.IdleTimeout != want.IdleTimeout ||
			got.HardTimeout != want.HardTimeout || !slices.Equal(got.Actions, want.Actions):
			rep.Mismatched++
			adds = append(adds, want.flowMod(k))
		}
	}
	return rep, slices.Concat(dels, adds), retire
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

// FlowStore returns the intended-state store of dpid (nil if the DPID
// has never connected).
func (c *Controller) FlowStore(dpid uint64) *FlowStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores[dpid]
}

// IntendedFlows snapshots the intended flows recorded for dpid (nil if
// the DPID has never connected).
func (c *Controller) IntendedFlows(dpid uint64) map[FlowKey]IntendedFlow {
	if fs := c.FlowStore(dpid); fs != nil {
		return fs.Flows()
	}
	return nil
}
