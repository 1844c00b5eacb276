package controller

import (
	"time"

	"repro/internal/obs"
	"repro/internal/zof"
)

// LivenessStats are the fault-tolerance layer's health counters: the
// keepalive's probe/miss/eviction counts and last detection latency,
// summed over every switch, and the reconciler's stale-flow flushes.
type LivenessStats struct {
	zof.ProbeStats
	// StaleFlows counts flow entries flushed by post-reconnect cookie
	// reconciliation.
	StaleFlows obs.Counter
	// Reconciles counts completed reconciliation passes.
	Reconciles obs.Counter
}

// keepalive runs the channel's prober on sc (Config.ProbeInterval). A
// full miss budget closes the connection, which breaks serve's Receive
// and drives the usual teardown (NIB cleanup, one SwitchDown, pending
// requests failed fast with ErrConnClosed). This is what turns a
// half-open session (switch crashed, NAT state lost, channel
// blackholed) from an invisible hang into a bounded detection.
func (c *Controller) keepalive(sc *SwitchConn) {
	defer c.connWG.Done()
	err := sc.conn.Probe(zof.ProbeConfig{
		ID:       sc.dpid,
		Interval: c.cfg.ProbeInterval,
		Timeout:  c.cfg.ProbeTimeout,
		Misses:   c.cfg.ProbeMisses,
	}, &c.liveness.ProbeStats, sc.done)
	if err != nil {
		c.cfg.Logf("liveness: evicted %#x after a full miss budget (last: %v)", sc.dpid, err)
	}
}

// reconcileFlows is the resync step of a re-attach: a returning DPID
// may still hold flows from its previous session (control-channel flap
// without a crash). Apps reinstall their state on the Reconnect
// SwitchUp under the fresh session epoch; this pass then queries the
// flow table and deletes every entry stamped with a different epoch.
// Each delete is strict (exact match+priority) and cookie-filtered, so
// a delete aimed at a stale entry can never remove a fresh entry that
// replaced it under the same match — the reconciliation is race-free
// against concurrent reinstalls.
func (c *Controller) reconcileFlows(sc *SwitchConn) {
	defer c.connWG.Done()
	defer sc.reconciling.Store(false)
	// Order the pass after the apps' reinstalls: a marker through the
	// DPID's dispatch shard proves the SwitchUp ahead of it has been
	// handled (per-switch FIFO), and a barrier then proves the installs
	// those handlers sent have been processed by the datapath. Neither
	// is needed for correctness — epoch filtering is precise whenever
	// the pass runs — but it makes one pass suffice.
	marker := make(chan struct{})
	c.post(flowSync{dpid: sc.dpid, done: marker})
	select {
	case <-marker:
		_ = sc.Barrier(reconcileTimeout)
	case <-sc.done:
		return
	case <-c.quit:
		return
	case <-time.After(reconcileTimeout):
		// Saturated shard dropped the marker; reconcile anyway.
	}
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind:    zof.StatsFlow,
		TableID: 0xff,
		Match:   zof.MatchAll(),
	}, reconcileTimeout)
	if err != nil {
		c.cfg.Logf("reconcile %#x: flow stats: %v", sc.dpid, err)
		return
	}
	var dels []zof.Message
	for _, f := range rep.Flows {
		if CookieEpoch(f.Cookie) == sc.epoch {
			continue
		}
		dels = append(dels, &zof.FlowMod{
			Command:  zof.FlowDeleteStrict,
			TableID:  f.TableID,
			Match:    f.Match,
			Priority: f.Priority,
			Cookie:   f.Cookie,
			Flags:    zof.FlagCookieFilter,
			BufferID: zof.NoBuffer,
		})
	}
	if len(dels) > 0 {
		if err := sc.SendBatch(dels...); err != nil {
			c.cfg.Logf("reconcile %#x: flush: %v", sc.dpid, err)
			return
		}
		c.liveness.StaleFlows.Add(uint64(len(dels)))
		c.cfg.Logf("reconcile %#x: flushed %d stale flows (epoch != %d)",
			sc.dpid, len(dels), sc.epoch)
	}
	c.liveness.Reconciles.Inc()
}
