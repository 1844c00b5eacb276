package controller

import (
	"repro/internal/obs"
	"repro/internal/zof"
)

// LivenessStats are the fault-tolerance layer's health counters: the
// keepalive's probe/miss/eviction counts and last detection latency,
// summed over every switch, and what the first audit pass of a
// re-attached or activated session flushed.
type LivenessStats struct {
	zof.ProbeStats
	// StaleFlows counts flow entries a session's first audit pass
	// deleted because an earlier session's epoch stamped their cookie,
	// counted as the deletes are sent.
	StaleFlows obs.Counter
	// Reconciles counts first audit passes that completed; a failed one
	// counts in controller.audit.failures instead.
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
