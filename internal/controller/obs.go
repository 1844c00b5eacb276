package controller

import (
	"fmt"

	"repro/internal/obs"
)

// Metrics returns the controller's metric registry: every subsystem —
// dispatch, liveness, transactions, auditing, the southbound wire,
// NIB, per-app latency, and any datapaths wired in with
// RegisterMetrics — publishes under one hierarchical namespace,
// snapshotable as a single JSON document via GET /v1/metrics.
func (c *Controller) Metrics() *obs.Registry { return c.reg }

// Tracing returns the control-loop flight recorder. Mode selection
// (off/sampled/full) and the last-N event log live there; the event
// path consults it once per post.
func (c *Controller) Tracing() *obs.FlightRecorder { return c.rec }

// TracerFunc answers a pipeline-trace request for one datapath: it
// runs the frame through the switch's match-action pipeline in explain
// mode and returns the JSON-marshalable trace. The indirection keeps
// the controller package free of a dataplane dependency — emulations
// register each switch's Trace method (core.Start does this); remote
// hardware datapaths have no tracer and the API reports that.
type TracerFunc func(inPort uint32, frame []byte) (any, error)

// RegisterTracer wires a pipeline tracer for dpid (nil unregisters).
func (c *Controller) RegisterTracer(dpid uint64, fn TracerFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn == nil {
		delete(c.tracers, dpid)
		return
	}
	c.tracers[dpid] = fn
}

// TracePacket runs dpid's registered pipeline tracer. The boolean is
// false when no tracer is registered for the DPID.
func (c *Controller) TracePacket(dpid uint64, inPort uint32, frame []byte) (any, error, bool) {
	c.mu.Lock()
	fn := c.tracers[dpid]
	c.mu.Unlock()
	if fn == nil {
		return nil, nil, false
	}
	out, err := fn(inPort, frame)
	return out, err, true
}

// MetricsRegistrant is implemented by apps that publish metrics of
// their own. Use invokes it once at registration with the app's scope
// of the controller registry ("apps.<name>"), so app counters appear
// in the same GET /v1/metrics snapshot as everything else.
type MetricsRegistrant interface {
	RegisterMetrics(sc obs.Scope)
}

// registerMetrics publishes every controller subsystem into the
// registry. Counter registrations adopt the live instruments — the hot
// paths keep bumping the same atomics they always did; the registry
// only learns their names. Func gauges read lock-free snapshots.
func (c *Controller) registerMetrics() {
	r := c.reg

	r.RegisterCounter("controller.dispatch.dispatched", &c.stats.Dispatched)
	r.RegisterCounter("controller.dispatch.dropped", &c.stats.Dropped)
	r.RegisterFunc("controller.dispatch.queued", func() int64 {
		n := 0
		for _, sh := range c.shards {
			n += len(sh)
		}
		for _, sh := range c.ctlShards {
			n += len(sh)
		}
		return int64(n)
	})
	r.RegisterFunc("controller.dispatch.shards", func() int64 { return int64(len(c.shards)) })

	r.RegisterFunc("controller.switches", func() int64 { return int64(len(*c.switches.Load())) })
	r.RegisterCounter("controller.async_errors", &c.asyncErrors)

	r.RegisterCounter("controller.liveness.probes", &c.liveness.Probes)
	r.RegisterCounter("controller.liveness.misses", &c.liveness.Misses)
	r.RegisterCounter("controller.liveness.evictions", &c.liveness.Evictions)
	r.RegisterCounter("controller.liveness.stale_flows", &c.liveness.StaleFlows)
	r.RegisterCounter("controller.liveness.reconciles", &c.liveness.Reconciles)
	r.RegisterFunc("controller.liveness.last_detection_ns", func() int64 { return int64(c.liveness.LastDetection()) })

	r.RegisterCounter("controller.txn.commits", &c.txnStats.Commits)
	r.RegisterCounter("controller.txn.aborts", &c.txnStats.Aborts)
	r.RegisterCounter("controller.txn.rollbacks", &c.txnStats.Rollbacks)
	r.RegisterCounter("controller.txn.rollback_failures", &c.txnStats.RollbackFailures)
	r.RegisterHistogram("controller.txn.latency", c.txnStats.Latency)

	r.RegisterCounter("controller.audit.audits", &c.auditStats.Audits)
	r.RegisterCounter("controller.audit.failures", &c.auditStats.Failures)
	r.RegisterCounter("controller.audit.skipped", &c.auditStats.Skipped)
	r.RegisterCounter("controller.audit.missing", &c.auditStats.Missing)
	r.RegisterCounter("controller.audit.mismatched", &c.auditStats.Mismatched)
	r.RegisterCounter("controller.audit.alien", &c.auditStats.Alien)
	r.RegisterCounter("controller.audit.expired", &c.auditStats.Expired)

	r.RegisterFunc("controller.nib.switches", func() int64 { return int64(len(c.nib.Switches())) })
	r.RegisterFunc("controller.nib.hosts", func() int64 { return int64(len(c.nib.Hosts())) })
	r.RegisterFunc("controller.nib.links", func() int64 { return int64(c.nib.Topology().NumLinks()) })
	// The topology snapshot's generation: a gauge that keeps moving is
	// a churning fabric (every step drops the memoised trees).
	r.RegisterFunc("controller.nib.version", func() int64 { return int64(c.nib.Topology().Version()) })

	r.RegisterCounter("zof.conn.tx_msgs", &c.connStats.TxMsgs)
	r.RegisterCounter("zof.conn.tx_bytes", &c.connStats.TxBytes)
	r.RegisterCounter("zof.conn.rx_msgs", &c.connStats.RxMsgs)
	r.RegisterCounter("zof.conn.rx_bytes", &c.connStats.RxBytes)
	r.RegisterCounter("zof.conn.flushes", &c.connStats.Flushes)

	r.RegisterFunc("controller.trace.recorded", func() int64 { return int64(c.rec.Recorded()) })
	r.RegisterFunc("controller.trace.mode", func() int64 { return int64(c.rec.Mode()) })
}

// appEntry pairs a registered app with its pre-resolved observability:
// dispatch reads the published snapshot and never touches the registry
// map on the hot path.
type appEntry struct {
	app App
	lat *obs.Histogram
}

// queuedEvent is an event riding a dispatch shard. Untraced events
// (the overwhelming default) carry zero extra state; a traced event is
// stamped at enqueue and dequeue so the recorder can split queue wait
// from handler time.
type queuedEvent struct {
	ev     Event
	enq    int64 // enqueue time, UnixNano; 0 unless traced
	deq    int64 // dequeue time, UnixNano; 0 unless traced
	traced bool
}

// eventKindName names an event type for traces.
func eventKindName(ev Event) string {
	switch ev.(type) {
	case PacketInEvent:
		return "packet_in"
	case FlowRemovedEvent:
		return "flow_removed"
	case PortStatusEvent:
		return "port_status"
	case SwitchUp:
		return "switch_up"
	case SwitchDown:
		return "switch_down"
	case LinkUp:
		return "link_up"
	case LinkDown:
		return "link_down"
	case HostLearned:
		return "host_learned"
	case flowSync:
		return "flow_sync"
	default:
		return fmt.Sprintf("%T", ev)
	}
}

// invokeApp hands ev to the handler interfaces app implements,
// reporting true when a packet-in handler consumed the event (later
// apps must not see it).
func (c *Controller) invokeApp(app App, ev Event) (consumed bool) {
	switch e := ev.(type) {
	case SwitchUp:
		if h, ok := app.(SwitchHandler); ok {
			h.SwitchUp(c, e)
		}
	case SwitchDown:
		if h, ok := app.(SwitchHandler); ok {
			h.SwitchDown(c, e)
		}
	case PacketInEvent:
		if h, ok := app.(PacketInHandler); ok {
			return h.PacketIn(c, e)
		}
	case FlowRemovedEvent:
		if h, ok := app.(FlowRemovedHandler); ok {
			h.FlowRemoved(c, e)
		}
	case PortStatusEvent:
		if h, ok := app.(PortStatusHandler); ok {
			h.PortStatus(c, e)
		}
	case LinkUp:
		if h, ok := app.(LinkHandler); ok {
			h.LinkUp(c, e)
		}
	case LinkDown:
		if h, ok := app.(LinkHandler); ok {
			h.LinkDown(c, e)
		}
	case HostLearned:
		if h, ok := app.(HostHandler); ok {
			h.HostLearned(c, e)
		}
	}
	return false
}
