package controller

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/zof"
)

// LivenessStats are the fault-tolerance layer's health counters: the
// prober's probe/miss/eviction counts and the reconciler's stale-flow
// flushes.
type LivenessStats struct {
	// Probes counts liveness echoes sent.
	Probes obs.Counter
	// Misses counts probes that timed out or round-tripped a corrupt
	// payload.
	Misses obs.Counter
	// Evictions counts peers declared dead after a full miss budget.
	Evictions obs.Counter
	// StaleFlows counts flow entries flushed by post-reconnect cookie
	// reconciliation.
	StaleFlows obs.Counter
	// Reconciles counts completed reconciliation passes.
	Reconciles obs.Counter
}

// probeLoop is the per-switch liveness prober: every ProbeInterval it
// round-trips an Echo carrying a sequence-stamped payload and verifies
// the payload came back intact. ProbeMisses consecutive failures evict
// the peer exactly like a read error — close the connection, which
// breaks serve's Receive and drives the usual teardown (NIB cleanup,
// one SwitchDown, pending requests failed fast with ErrConnClosed).
// This is what turns a half-open TCP session (switch crashed, NAT state
// lost, channel blackholed) from an invisible hang into a bounded
// detection: at most ProbeInterval × ProbeMisses after the first lost
// probe (for ProbeTimeout ≤ ProbeInterval).
func (c *Controller) probeLoop(sc *SwitchConn) {
	defer c.connWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	var (
		seq       uint64
		misses    int
		firstMiss time.Time
		payload   [16]byte
	)
	binary.BigEndian.PutUint64(payload[:8], sc.dpid)
	for {
		select {
		case <-c.quit:
			return
		case <-sc.done:
			return
		case <-t.C:
		}
		seq++
		binary.BigEndian.PutUint64(payload[8:], seq)
		sent := time.Now()
		c.liveness.Probes.Inc()
		err := sc.EchoData(payload[:], c.cfg.ProbeTimeout)
		if err == nil {
			misses = 0
			continue
		}
		if errors.Is(err, zof.ErrConnClosed) {
			return // torn down elsewhere; teardown owns the eviction
		}
		c.liveness.Misses.Inc()
		if misses == 0 {
			firstMiss = sent
		}
		misses++
		if misses >= c.cfg.ProbeMisses {
			c.liveness.Evictions.Inc()
			c.detectNanos.Store(int64(time.Since(firstMiss)))
			c.cfg.Logf("liveness: evicting %#x after %d missed echoes (last: %v)",
				sc.dpid, misses, err)
			sc.close()
			return
		}
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
