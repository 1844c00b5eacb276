package controller

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// Fixed timings and retry budgets no deployment has needed to vary.
const (
	// handshakeTimeout bounds the per-connection handshake.
	handshakeTimeout = 5 * time.Second
	// discoveryInterval is the LLDP probing period.
	discoveryInterval = 500 * time.Millisecond
	// reconcileTimeout bounds the flow-stats query of the
	// post-reconnect cookie reconciliation pass.
	reconcileTimeout = 5 * time.Second
	// auditTimeout bounds the stats query and the repair fence of one
	// audit pass.
	auditTimeout = 2 * time.Second
)

// Config tunes a Controller.
type Config struct {
	// Addr is the southbound listen address, e.g. "127.0.0.1:0".
	Addr string
	// EventQueue is each dispatch shard's buffer; 0 means 4096.
	EventQueue int
	// DispatchWorkers is the number of sharded dispatch goroutines.
	// Events are keyed by DPID, so one switch's events always land on
	// one shard (per-switch FIFO), while different switches dispatch
	// in parallel. 0 means min(GOMAXPROCS, 16).
	DispatchWorkers int
	// Discovery enables LLDP topology probing every discoveryInterval.
	Discovery bool
	// ProbeInterval enables per-switch liveness probing: every interval
	// the controller round-trips an Echo with a sequence-stamped payload
	// on each connection. 0 disables probing (the default — short-lived
	// tools and benches need no keepalives).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual probe; 0 means ProbeInterval.
	ProbeTimeout time.Duration
	// ProbeMisses is the miss budget: this many consecutive failed
	// probes close the connection, evicting the peer exactly like a
	// read error (SwitchDown, NIB cleanup, pending requests failed
	// fast). Default 3.
	ProbeMisses int
	// TxnTimeout bounds each of a transaction's two waits once — for
	// its commit fences, then for its rollback fences — with no retry: a
	// second barrier on the ordered stream would only answer after the
	// first. Default 5s.
	TxnTimeout time.Duration
	// AuditInterval enables the anti-entropy auditor: every interval the
	// controller diffs each switch's flow table against its intended
	// state and repairs drift. 0 disables auditing (the default).
	AuditInterval time.Duration
	// EpochOffset and EpochStride partition the 16-bit session-epoch
	// space across a controller cluster: instance i of a cluster of up
	// to EpochStride members sets Offset=i, Stride=members, and every
	// epoch it mints satisfies epoch ≡ Offset+1 (mod Stride) — so two
	// instances can never stamp flows with the same epoch, which is
	// what lets a takeover's cookie reconciliation distinguish the old
	// master's rules from its own. Zero values mean the whole space
	// (single instance, the default).
	EpochOffset uint64
	EpochStride uint64
	// Mastership, when set, defers switch activation to an external
	// coordinator (the cluster layer): a connecting datapath is
	// registered and NIB-visible but posts no SwitchUp and feeds no
	// app events until ActivateSwitch — so a standby instance can hold
	// a warm connection without its apps programming a switch it does
	// not own. Nil keeps the single-instance behavior: every
	// connection activates itself.
	Mastership Mastership
	// TraceBuffer is the control-loop flight recorder's ring capacity
	// (last-N traced events retained); 0 means 1024. Tracing starts in
	// TraceOff regardless — flip it at runtime via Tracing().SetMode or
	// POST /v1/trace/mode.
	TraceBuffer int
	// ErrorHandler receives asynchronous zof.Error replies that belong
	// to no pending request and no in-flight fence — the fire-and-forget
	// failures that used to vanish. Called from the connection's read
	// goroutine: do not block. Nil logs them via Logf instead.
	ErrorHandler func(AsyncError)
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Mastership is the hook surface an external mastership coordinator
// (the cluster layer) implements to own switch activation. Both hooks
// are called from the connection's serve goroutine, outside controller
// locks — they may call back into the Controller (ActivateSwitch,
// Switch, NIB) but must not block for long, since the switch's receive
// loop waits.
type Mastership interface {
	// SwitchConnected fires after a datapath registers. reconnect is
	// true when the DPID was seen before (including via MarkSeen — a
	// takeover target learned through replication counts as returning,
	// so activation reconciles the old master's flows instead of
	// trusting a clean table).
	SwitchConnected(dpid uint64, reconnect bool)
	// SwitchGone fires after a registered datapath's connection is torn
	// down and unregistered.
	SwitchGone(dpid uint64)
}

// DispatchStats are the control plane's event-path health counters.
type DispatchStats struct {
	// Dispatched counts events handed to the app chain.
	Dispatched obs.Counter
	// Dropped counts events discarded because their shard's queue was
	// full — the overload signal: a saturated control plane sheds
	// packet-ins rather than deadlocking connection readers.
	Dropped obs.Counter
}

// switchMap is the RCU-published registry snapshot: readers load the
// pointer; writers clone under c.mu and republish.
type switchMap map[uint64]*SwitchConn

// Controller is the zen control plane.
type Controller struct {
	cfg  Config
	ln   net.Listener
	nib  *NIB
	disc *discovery

	// mu serializes mutators (switch registration, app registration,
	// close). The hot paths — Switch, Switches, dispatch — read the
	// atomic snapshots below and never take it.
	mu     sync.Mutex
	closed bool
	// nextEpoch numbers sessions; lastEpoch remembers every DPID that
	// ever registered so a returning datapath is recognized (both
	// guarded by mu).
	nextEpoch uint64
	lastEpoch map[uint64]uint64
	// stores holds each DPID's intended-state record. Guarded by mu and
	// persistent across sessions: a switch that crashes and returns is
	// audited back to the configuration the controller still intends.
	stores map[uint64]*FlowStore

	switches atomic.Pointer[switchMap]
	apps     atomic.Pointer[[]appEntry]

	// shards carry the data-plane event stream (packet-ins, flow
	// removals, port status); ctlShards are each worker's control lane —
	// a small priority queue for lifecycle events (SwitchUp, SwitchDown,
	// flowSync markers) that the worker drains ahead of its data shard.
	// Without the lane, a takeover's SwitchUp queues behind a packet-in
	// flood from already-active switches and the apps' intent reinstall
	// is delayed unboundedly — while the reconciler, whose marker shares
	// the fate, times out and flushes the dead master's rules anyway,
	// leaving the switch forwarding on an empty table for the duration.
	shards    []chan queuedEvent
	ctlShards []chan queuedEvent
	quit      chan struct{}
	loopWG    sync.WaitGroup
	connWG    sync.WaitGroup

	// reg is the unified metric registry (see Metrics); rec the
	// control-loop flight recorder (see Tracing); connStats the
	// fleet-aggregate southbound wire counters every switch connection
	// shares; tracers the per-DPID pipeline tracers (guarded by mu).
	reg       *obs.Registry
	rec       *obs.FlightRecorder
	connStats zof.ConnStats
	tracers   map[uint64]TracerFunc
	nfs       map[uint64]NFIntrospector

	stats      DispatchStats
	liveness   LivenessStats
	txnStats   TxnStats
	auditStats AuditStats
	// asyncErrors counts Error replies that matched no pending request
	// and no in-flight fence (visibility for fire-and-forget failures).
	asyncErrors obs.Counter
}

// New starts a controller listening on cfg.Addr.
func New(cfg Config) (*Controller, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.EventQueue <= 0 {
		cfg.EventQueue = 4096
	}
	if cfg.DispatchWorkers <= 0 {
		cfg.DispatchWorkers = runtime.GOMAXPROCS(0)
		if cfg.DispatchWorkers > 16 {
			cfg.DispatchWorkers = 16
		}
	}
	if cfg.TxnTimeout <= 0 {
		cfg.TxnTimeout = 5 * time.Second
	}
	if cfg.EpochStride == 0 {
		cfg.EpochStride = 1
	}
	if cfg.EpochStride > 1<<15 {
		return nil, fmt.Errorf("epoch stride %d leaves no epochs per instance", cfg.EpochStride)
	}
	cfg.EpochOffset %= cfg.EpochStride
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("controller listen: %w", err)
	}
	c := &Controller{
		cfg:       cfg,
		ln:        ln,
		nib:       NewNIB(),
		lastEpoch: make(map[uint64]uint64),
		stores:    make(map[uint64]*FlowStore),
		shards:    make([]chan queuedEvent, cfg.DispatchWorkers),
		ctlShards: make([]chan queuedEvent, cfg.DispatchWorkers),
		quit:      make(chan struct{}),
		reg:       obs.NewRegistry(),
		rec:       obs.NewFlightRecorder(cfg.TraceBuffer),
		tracers:   make(map[uint64]TracerFunc),
		nfs:       make(map[uint64]NFIntrospector),
	}
	c.txnStats.Latency = obs.NewHistogram()
	c.registerMetrics()
	empty := make(switchMap)
	c.switches.Store(&empty)
	noApps := []appEntry(nil)
	c.apps.Store(&noApps)
	c.disc = newDiscovery(c)
	c.loopWG.Add(1 + len(c.shards))
	for i := range c.shards {
		c.shards[i] = make(chan queuedEvent, cfg.EventQueue)
		// Lifecycle events are rare (a handful per switch session); a
		// small buffer suffices and keeps postBlocking waits short.
		c.ctlShards[i] = make(chan queuedEvent, 64)
		go c.dispatchLoop(c.ctlShards[i], c.shards[i])
	}
	// Accept only once every shard exists: a switch already redialing
	// this address registers the instant the listener is served.
	go c.acceptLoop()
	if cfg.Discovery {
		c.disc.start(discoveryInterval)
	}
	if cfg.AuditInterval > 0 {
		c.loopWG.Add(1)
		go c.auditLoop()
	}
	return c, nil
}

// Addr returns the actual southbound address (useful with ":0").
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// NIB exposes the network information base.
func (c *Controller) NIB() *NIB { return c.nib }

// Use registers apps, in dispatch order. Call before switches connect
// for deterministic behavior; registration is safe at any time and
// never stalls in-flight dispatch — the app list is republished
// copy-on-write and workers read the snapshot lock-free. Each app's
// handler latency histogram (controller.app.<name>.latency) is
// resolved here, once, so traced dispatches never touch the registry.
func (c *Controller) Use(apps ...App) {
	c.mu.Lock()
	old := *c.apps.Load()
	next := make([]appEntry, 0, len(old)+len(apps))
	next = append(next, old...)
	for _, a := range apps {
		next = append(next, appEntry{
			app: a,
			lat: c.reg.Histogram("controller.app." + a.Name() + ".latency"),
		})
		if mr, ok := a.(MetricsRegistrant); ok {
			mr.RegisterMetrics(c.reg.Scope("apps." + a.Name()))
		}
	}
	c.apps.Store(&next)
	c.mu.Unlock()
}

// Switch returns the live connection for dpid. Lock-free.
func (c *Controller) Switch(dpid uint64) (*SwitchConn, bool) {
	s, ok := (*c.switches.Load())[dpid]
	return s, ok
}

// Switches snapshots the live connections. Lock-free.
func (c *Controller) Switches() []*SwitchConn {
	m := *c.switches.Load()
	out := make([]*SwitchConn, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	return out
}

// registerSwitch publishes sc in the registry (newest connection wins,
// like OVS reconnects), assigns the session epoch, installs the NIB
// entry and posts SwitchUp — all under c.mu, so registry state, NIB
// state and the per-DPID SwitchUp/SwitchDown event order agree even
// when an old session's teardown races a new session's registration.
// It reports whether the DPID is returning (seen before) and false ok
// when the controller is closed.
func (c *Controller) registerSwitch(sc *SwitchConn) (reconnect, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, false
	}
	// Epochs live in 16 cookie bits and are never 0 (0 marks flows not
	// installed through a SwitchConn). The offset/stride partition
	// keeps a cluster's instances in disjoint residue classes: with
	// span = ⌊65535/stride⌋ distinct epochs per instance, the values
	// 1+offset+stride·n stay within [1, 65535] and ≡ offset+1 (mod
	// stride). (A naive 1+(offset+n·stride) mod 65535 would leak
	// across classes — 65535 is odd, so stepping wraps onto every
	// residue.) Stride 1 reduces to the historic single-instance
	// numbering.
	span := uint64(1<<16-1) / c.cfg.EpochStride
	sc.epoch = 1 + c.cfg.EpochOffset + c.cfg.EpochStride*(c.nextEpoch%span)
	c.nextEpoch++
	// The intended-state store is per-DPID and outlives sessions.
	if c.stores[sc.dpid] == nil {
		c.stores[sc.dpid] = NewFlowStore()
	}
	sc.store = c.stores[sc.dpid]
	_, reconnect = c.lastEpoch[sc.dpid]
	c.lastEpoch[sc.dpid] = sc.epoch
	sc.reconnect = reconnect
	if reconnect && c.cfg.Mastership == nil {
		// Block audits until reconcileFlows has flushed stale-epoch
		// leftovers: an audit pass running first could re-add intended
		// flows under their old-epoch cookies, which the reconciler
		// would then flush from the switch AND the store, destroying
		// intent. The flag drops when the reconcile pass completes.
		// (Under deferred mastership the flag rises in ActivateSwitch
		// instead — no reconcile runs before activation.)
		sc.reconciling.Store(true)
	}
	old := *c.switches.Load()
	next := make(switchMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if prev, dup := next[sc.dpid]; dup {
		// Displaced session: close it now. Its serve goroutine's
		// teardown will find itself no longer registered and skip the
		// NIB removal and SwitchDown (see unregisterSwitch).
		prev.close()
	}
	next[sc.dpid] = sc
	c.switches.Store(&next)
	c.nib.addSwitch(sc.features)
	if c.cfg.Mastership == nil {
		// Single-instance mode: every connection activates itself.
		// Under deferred mastership the SwitchUp waits for
		// ActivateSwitch — apps must not program a switch this
		// instance does not yet own.
		sc.active.Store(true)
		c.post(SwitchUp{DPID: sc.dpid, Features: sc.features, Reconnect: reconnect})
	}
	return reconnect, true
}

// ActivateSwitch releases a deferred activation (Config.Mastership):
// it posts the SwitchUp apps install against and, when the DPID is
// returning, runs the cookie-epoch reconciliation pass that flushes
// the previous owner's flows once the apps have reinstalled — the
// takeover path: intent is re-derived, stale rules are strictly
// deleted, traffic under still-valid rules keeps flowing throughout.
// Idempotent; an error means the DPID is not connected here.
func (c *Controller) ActivateSwitch(dpid uint64) error {
	sc, ok := c.Switch(dpid)
	if !ok {
		return fmt.Errorf("activate %#x: not connected", dpid)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("activate %#x: controller closed", dpid)
	}
	if sc.active.Swap(true) {
		c.mu.Unlock()
		return nil // already active
	}
	// Unlike the single-instance reconnect path, activation reconciles
	// unconditionally: a standby's connection may predate the takeover
	// (it was already attached, just inactive), so "first registration
	// here" proves nothing about the flow table — the dead master's
	// rules are there either way. The pass is cheap when the table is
	// clean (one stats round trip, zero deletes).
	sc.reconciling.Store(true) // audit gate up before apps reinstall
	c.connWG.Add(1)
	c.mu.Unlock()
	c.postBlocking(SwitchUp{DPID: dpid, Features: sc.features, Reconnect: sc.reconnect})
	go c.reconcileFlows(sc)
	return nil
}

// DeactivateSwitch is ActivateSwitch's inverse, for deposal: a master
// that learns a peer claimed its switch with a newer term stands down
// — apps get a SwitchDown (the connection itself stays up, demoted to
// slave at the switch), the auditor stops repairing a table this
// instance no longer owns. Idempotent; a no-op for unknown or already
// inactive DPIDs.
func (c *Controller) DeactivateSwitch(dpid uint64) {
	sc, ok := c.Switch(dpid)
	if !ok || !sc.active.Swap(false) {
		return
	}
	c.postBlocking(SwitchDown{DPID: dpid})
}

// MarkSeen records dpid as previously known, so its next registration
// counts as a reconnect even if this instance never owned a session to
// it. A cluster standby calls it when replication tells it the switch
// exists: on takeover the switch arrives carrying the dead master's
// flows, and only the reconnect path reconciles them away.
func (c *Controller) MarkSeen(dpid uint64) {
	c.mu.Lock()
	if _, ok := c.lastEpoch[dpid]; !ok {
		c.lastEpoch[dpid] = 0 // epoch 0 is never minted: "seen, never owned"
	}
	c.mu.Unlock()
}

// unregisterSwitch tears down sc's registration — but only if sc is
// still the registered connection for its dpid: after a dup-DPID
// reconnect the displaced session must not wipe the new session's NIB
// entry or tell apps a live switch went down. NIB removal and the
// SwitchDown post happen under the same c.mu hold as the registry
// update, mirroring registerSwitch, so per-DPID lifecycle events reach
// the dispatch shard in registry order. Reports whether sc was the
// registered connection (the caller fires the Mastership hook on true).
func (c *Controller) unregisterSwitch(sc *SwitchConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.switches.Load()
	if old[sc.dpid] != sc {
		return false // a newer session owns this DPID now
	}
	next := make(switchMap, len(old))
	for k, v := range old {
		if v != sc {
			next[k] = v
		}
	}
	c.switches.Store(&next)
	c.nib.removeSwitch(sc.dpid)
	// A connection that never activated told the apps nothing; its
	// death is likewise none of their business.
	if !c.closed && sc.active.Load() {
		c.post(SwitchDown{DPID: sc.dpid})
	}
	return true
}

// Close stops the controller and disconnects every datapath.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.Switches()
	c.mu.Unlock()

	c.disc.stop()
	err := c.ln.Close()
	for _, s := range conns {
		s.close()
	}
	c.connWG.Wait()
	// Shard channels are never closed (dispatch workers themselves post
	// follow-up events); quit unblocks the loops instead.
	close(c.quit)
	c.loopWG.Wait()
	return err
}

func (c *Controller) acceptLoop() {
	defer c.loopWG.Done()
	for {
		raw, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.Serve(raw)
	}
}

// Serve starts a southbound session over conn (an accepted socket, or
// one end of a netem.StreamPair) and returns at once. After Close it
// closes conn and starts nothing.
func (c *Controller) Serve(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return
	}
	c.connWG.Add(1)
	go c.serve(conn)
}

func (c *Controller) serve(raw net.Conn) {
	defer c.connWG.Done()
	conn := zof.NewConn(raw)
	// Every southbound connection feeds the same fleet-wide wire
	// counters (zof.conn.* in the registry).
	conn.SetStats(&c.connStats)
	sc, err := handshake(conn, handshakeTimeout)
	if err != nil {
		c.cfg.Logf("handshake with %v failed: %v", raw.RemoteAddr(), err)
		conn.Close()
		return
	}
	// Handshake traffic flushed per message; steady-state southbound
	// writes coalesce (flush-on-idle).
	conn.SetAutoFlush(0)
	reconnect, ok := c.registerSwitch(sc)
	if !ok {
		sc.close()
		return
	}
	if reconnect && c.cfg.Mastership == nil {
		// A returning DPID may carry flows from its previous session;
		// once the apps have reinstalled under the fresh epoch, flush
		// the leftovers. (Deferred mastership runs this pass from
		// ActivateSwitch instead, after the lease is won.)
		c.connWG.Add(1)
		go c.reconcileFlows(sc)
	}
	if c.cfg.ProbeInterval > 0 {
		c.connWG.Add(1)
		go c.keepalive(sc)
	}
	if c.cfg.Mastership != nil {
		c.cfg.Mastership.SwitchConnected(sc.dpid, reconnect)
	}

	for {
		msg, h, err := sc.conn.Receive()
		if err != nil {
			break
		}
		// Before activation the apps do not know this switch exists:
		// its asynchronous events stop here (the NIB and stores still
		// track them, so activation starts warm).
		active := sc.active.Load()
		switch m := msg.(type) {
		case *zof.PacketIn:
			if active {
				c.post(PacketInEvent{DPID: sc.dpid, Msg: *m})
			}
		case *zof.FlowRemoved:
			// The switch retired the rule (timeout or delete); retire the
			// matching intent so the auditor does not resurrect it.
			sc.store.RemoveIfCookie(FlowKey{m.TableID, m.Match, m.Priority}, m.Cookie)
			if active {
				c.post(FlowRemovedEvent{DPID: sc.dpid, Msg: *m})
			}
		case *zof.PortStatus:
			c.nib.setPort(sc.dpid, m.Port)
			if active {
				c.post(PortStatusEvent{DPID: sc.dpid, Msg: *m})
			}
		case *zof.Hello:
			// ignore
		case *zof.Error:
			// A reply to a blocked request resolves it; a reply to a
			// fenced op joins that fence's rejections; anything else is a
			// fire-and-forget failure the controller surfaces instead of
			// dropping.
			if sc.resolve(h.XID, msg) || sc.reject(h.XID, m) {
				break
			}
			c.asyncErrors.Inc()
			ae := AsyncError{DPID: sc.dpid, XID: h.XID, Code: m.Code, Detail: m.Detail}
			if c.cfg.ErrorHandler != nil {
				c.cfg.ErrorHandler(ae)
			} else {
				c.cfg.Logf("async error: %v", ae)
			}
		default:
			if !sc.resolve(h.XID, msg) {
				c.cfg.Logf("unsolicited %v from %#x", msg.Type(), sc.dpid)
			}
		}
	}

	sc.close()
	if c.unregisterSwitch(sc) && c.cfg.Mastership != nil {
		c.cfg.Mastership.SwitchGone(sc.dpid)
	}
}

// eventKey returns the sharding key: the DPID whose per-switch FIFO the
// event belongs to. Link events key on their canonical source switch;
// unkeyed event types map to shard 0.
func eventKey(ev Event) uint64 {
	switch e := ev.(type) {
	case PacketInEvent:
		return e.DPID
	case FlowRemovedEvent:
		return e.DPID
	case PortStatusEvent:
		return e.DPID
	case SwitchUp:
		return e.DPID
	case SwitchDown:
		return e.DPID
	case HostLearned:
		return e.DPID
	case LinkUp:
		return e.SrcDPID
	case LinkDown:
		return e.SrcDPID
	case flowSync:
		return e.dpid
	default:
		return 0
	}
}

// flowSync is an internal marker event: riding a DPID's FIFO shard, its
// dispatch proves every event posted ahead of it for that switch —
// notably a SwitchUp — has been handled. The reconciler uses it to
// sequence the stale-flow flush after the apps' reinstalls.
type flowSync struct {
	dpid uint64
	done chan struct{}
}

// shardFor spreads keys across n shards; the Fibonacci multiplier keeps
// sequential DPIDs (the common numbering) from clustering.
func shardFor(key uint64, n int) int {
	if n == 1 {
		return 0
	}
	key *= 0x9E3779B97F4A7C15
	return int((key >> 32) % uint64(n))
}

// post enqueues an event on its DPID's shard, dropping (with a log line
// and a counter tick) if that shard is saturated — backpressure must
// not deadlock connection readers. Posts racing shutdown are silently
// discarded.
func (c *Controller) post(ev Event) {
	select {
	case <-c.quit:
		return
	default:
	}
	qe := queuedEvent{ev: ev}
	// One atomic load with tracing off; a timestamp only for events
	// that sample in.
	if c.rec.Sample() {
		qe.traced = true
		qe.enq = time.Now().UnixNano()
	}
	lane := c.laneFor(ev)
	select {
	case lane[shardFor(eventKey(ev), len(lane))] <- qe:
	default:
		c.stats.Dropped.Inc()
		c.cfg.Logf("dispatch shard full; dropping %T", ev)
	}
}

// postBlocking enqueues like post but waits for a slot instead of
// dropping. Activation lifecycle events are correctness-bearing — a
// SwitchUp lost to a packet-in flood means the apps never reinstall
// intent on a freshly adopted switch, which no later event repairs —
// and their callers (cluster claim goroutines, the mastership API) are
// never connection readers, so waiting cannot deadlock a reader
// against its own shard. A saturated shard continuously frees slots as
// its worker drains, so the wait is bounded by dispatch progress; only
// shutdown abandons the send.
func (c *Controller) postBlocking(ev Event) {
	select {
	case <-c.quit:
		return
	default:
	}
	qe := queuedEvent{ev: ev}
	if c.rec.Sample() {
		qe.traced = true
		qe.enq = time.Now().UnixNano()
	}
	lane := c.laneFor(ev)
	select {
	case lane[shardFor(eventKey(ev), len(lane))] <- qe:
	case <-c.quit:
	}
}

// dispatchLoop drains one worker's two lanes, control first: a
// lifecycle event never waits behind the data backlog, only behind the
// event currently in flight. Within each lane FIFO holds, which is the
// ordering the reconciler's flowSync marker relies on (it must follow
// the SwitchUp posted before it — both ride the control lane).
func (c *Controller) dispatchLoop(ctl, events <-chan queuedEvent) {
	defer c.loopWG.Done()
	run := func(qe queuedEvent) {
		c.stats.Dispatched.Inc()
		if qe.traced {
			qe.deq = time.Now().UnixNano()
		}
		c.dispatch(qe)
	}
	for {
		// Priority poll: empty the control lane before touching data.
		select {
		case <-c.quit:
			return
		case qe := <-ctl:
			run(qe)
			continue
		default:
		}
		select {
		case <-c.quit:
			return
		case qe := <-ctl:
			run(qe)
		case qe := <-events:
			run(qe)
		}
	}
}

// laneFor picks the shard set an event rides: lifecycle events (and the
// reconciler's ordering marker) take the control lane, everything else
// the data lane.
func (c *Controller) laneFor(ev Event) []chan queuedEvent {
	switch ev.(type) {
	case SwitchUp, SwitchDown, flowSync:
		return c.ctlShards
	}
	return c.shards
}

func (c *Controller) dispatch(qe queuedEvent) {
	ev := qe.ev
	defer func() {
		if r := recover(); r != nil {
			log.Printf("controller: app panic on %T: %v", ev, r)
		}
	}()
	apps := *c.apps.Load()

	if fs, ok := ev.(flowSync); ok {
		close(fs.done)
		return
	}
	var spans []obs.AppSpan
	if qe.traced {
		// Registered before the work so the event is recorded however
		// dispatch exits — consumed packet-in, discovery short-circuit,
		// even an app panic (the recover defer runs after this one).
		defer func() {
			c.rec.Record(obs.TraceEvent{
				Kind:     eventKindName(ev),
				DPID:     eventKey(ev),
				Enqueued: time.Unix(0, qe.enq),
				QueueNS:  qe.deq - qe.enq,
				Apps:     spans,
				TotalNS:  time.Now().UnixNano() - qe.enq,
			})
		}()
	}
	// Built-in pre-processing: discovery consumes LLDP; host learning
	// runs before apps so they can query the NIB.
	if pi, ok := ev.(PacketInEvent); ok {
		if c.disc.handlePacketIn(pi) {
			return
		}
		c.learnFromPacketIn(pi)
	}
	if ps, ok := ev.(PortStatusEvent); ok {
		c.disc.handlePortStatus(ps)
	}

	if !qe.traced {
		for _, ae := range apps {
			if c.invokeApp(ae.app, ev) {
				return
			}
		}
		return
	}
	for _, ae := range apps {
		t0 := time.Now()
		consumed := c.invokeApp(ae.app, ev)
		d := time.Since(t0)
		ae.lat.Observe(d)
		spans = append(spans, obs.AppSpan{App: ae.app.Name(), DurNS: int64(d)})
		if consumed {
			return
		}
	}
}

// learnFromPacketIn updates host locations from data-plane evidence.
func (c *Controller) learnFromPacketIn(pi PacketInEvent) {
	var f packet.Frame
	if packet.Decode(pi.Msg.Data, &f) != nil {
		return
	}
	var ip packet.IPv4Addr
	switch {
	case f.Has(packet.LayerARP):
		ip = f.ARP.SenderIP
	case f.Has(packet.LayerIPv4):
		ip = f.IPv4.Src
	}
	if c.nib.learnHost(f.Eth.Src, ip, pi.DPID, pi.Msg.InPort) {
		c.post(HostLearned{MAC: f.Eth.Src, IP: ip, DPID: pi.DPID, Port: pi.Msg.InPort})
	}
}

// Barrier synchronizes with every connected datapath. Every switch is
// fenced at once — a fleet-wide fence costs one RTT (plus the slowest
// switch), not the sum — and the per-switch failures are joined. It
// reads the lock-free registry snapshot, so a slow datapath never
// stalls dispatch or registration.
func (c *Controller) Barrier(timeout time.Duration) error {
	switches := c.Switches()
	var errs []error
	for i, r := range fenceAll(switches, make([][]zof.Message, len(switches)), timeout) {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("barrier to %#x: %w", switches[i].dpid, r.err))
		}
	}
	return errors.Join(errs...)
}

// WaitForSwitches blocks until n datapaths are connected or the timeout
// elapses. It polls the registry snapshot without locking.
func (c *Controller) WaitForSwitches(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got := len(*c.switches.Load())
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d switches connected", got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// InjectEvent posts a synthetic event (tests and tooling).
func (c *Controller) InjectEvent(ev Event) { c.post(ev) }
