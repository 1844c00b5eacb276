// Package cluster distributes the zen control plane across N
// controller instances, per the keynote's availability argument: the
// network must survive the failure of the logically centralized
// controller. Each switch has exactly one master instance at any
// moment — mastership is a term-numbered lease, renewed by heartbeat,
// expiring into election — and every instance follows a replicated NIB
// delta log, so a standby's topology picture is already warm when a
// takeover makes it authoritative. The term doubles as the fencing
// token: it is presented to the switch as the role generation id, so a
// deposed master's in-flight writes are rejected by the switch itself,
// not merely by cluster bookkeeping.
package cluster

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/obs"
	"repro/internal/zof"
)

const (
	// peerMisses is the heartbeat miss budget of the peer-death fast
	// path: an instance silent for peerMisses heartbeat intervals has
	// its leases expired early, ahead of their TTL.
	peerMisses = 3
	// roleTimeout bounds the SetRole exchange with a switch during
	// claim and stand-down.
	roleTimeout = 2 * time.Second
)

// Config tunes an Instance.
type Config struct {
	// ID is this instance's index in the cluster (0-based, unique).
	ID int
	// Controller is the local control plane. Its Config.Mastership
	// must be a *Hooks bound to this instance, and its
	// EpochOffset/EpochStride should partition the epoch space by
	// ID/cluster size so takeover reconciliation can tell instances'
	// flows apart.
	Controller *controller.Controller
	// LeaseTTL is how long a lease survives without renewal (default
	// 500ms). Lower bounds the failure-detection latency of the
	// lease-expiry path.
	LeaseTTL time.Duration
	// HeartbeatInterval is the renewal and gossip cadence (default
	// LeaseTTL/3 — several renewals fit one TTL, so a single lost
	// heartbeat never causes a spurious election). It also bounds each
	// write to a peer and spaces the redials of a dead one.
	HeartbeatInterval time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// lease is one switch's mastership record as this instance believes
// it. holder -1 means released/unknown; term survives release so the
// next claim always moves forward.
type lease struct {
	holder int
	term   uint64
	expire time.Time // meaningless while holder == the local instance
}

// LeaseInfo is the introspection view of one lease.
type LeaseInfo struct {
	DPID    uint64
	Holder  int
	Term    uint64
	Expires time.Time
}

// Hooks adapts an Instance to controller.Mastership. The controller is
// constructed first (its Config needs the hooks), the instance second
// (it needs the controller); Bind closes the loop. Hooks firing before
// Bind are dropped — the instance's periodic sweep finds any switch
// that connected early.
type Hooks struct{ in atomic.Pointer[Instance] }

// Bind attaches the instance the hooks forward to.
func (h *Hooks) Bind(in *Instance) { h.in.Store(in) }

// SwitchConnected implements controller.Mastership. It runs on the
// switch connection's serve goroutine, so the (possibly blocking)
// claim runs detached — a synchronous SetRole here would deadlock
// against the very read loop that must deliver its reply.
func (h *Hooks) SwitchConnected(dpid uint64, reconnect bool) {
	if in := h.in.Load(); in != nil {
		go in.maybeAcquire(dpid)
	}
}

// SwitchGone implements controller.Mastership.
func (h *Hooks) SwitchGone(dpid uint64) {
	if in := h.in.Load(); in != nil {
		in.switchGone(dpid)
	}
}

// Instance is one member of the controller cluster.
type Instance struct {
	cfg Config
	c   *controller.Controller

	mu        sync.Mutex
	leases    map[uint64]*lease
	acquiring map[uint64]bool // claims in flight (SetRole pending)
	peerSeen  map[int]time.Time
	log       map[int][]Delta // replicated NIB logs, by origin
	vv        map[int]uint64  // highest contiguous seq held, by origin
	inbound   map[*zof.Conn]struct{}
	closed    bool

	peers []*peerLink
	// stride partitions the term space: this instance only mints terms
	// ≡ ID (mod stride), so no two instances can ever claim the same
	// term and the switch's generation fencing totally orders rivals
	// (set at Join to the cluster size; 1 until then).
	stride uint64

	// Counters (published under apps.cluster-replicator.* when the
	// controller's metrics registry picks the observer app up).
	takeovers      atomic.Uint64
	deposals       atomic.Uint64
	heartbeatsSent atomic.Uint64
	heartbeatsRecv atomic.Uint64
	applied        atomic.Uint64
	sent           atomic.Uint64
	takeoverNanos  atomic.Int64

	quit chan struct{}
	wg   sync.WaitGroup
}

// New starts an instance: observer app registered, tick loop running.
// Peers reach it through Serve. Call Join once every member's dialer is
// known, and Hooks.Bind to start receiving mastership events.
func New(cfg Config) (*Instance, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("cluster: Config.Controller is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 500 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.LeaseTTL / 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	in := &Instance{
		cfg:       cfg,
		c:         cfg.Controller,
		leases:    make(map[uint64]*lease),
		acquiring: make(map[uint64]bool),
		peerSeen:  make(map[int]time.Time),
		log:       make(map[int][]Delta),
		vv:        make(map[int]uint64),
		inbound:   make(map[*zof.Conn]struct{}),
		stride:    1,
		quit:      make(chan struct{}),
	}
	in.c.Use(observer{in})
	in.wg.Add(1)
	go in.tickLoop()
	return in, nil
}

// ID returns the instance's cluster ID.
func (in *Instance) ID() int { return in.cfg.ID }

// Join installs the peer set (ID → a dialer that reaches the peer's
// Serve, such as netem.Channel.Dial). Entries for the local ID are
// ignored. Call once at formation. Joining also fixes the term stride
// at the cluster size, moving this instance into its private residue
// class of the term space.
func (in *Instance) Join(peers map[int]func() (net.Conn, error)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for id, dial := range peers {
		if id == in.cfg.ID {
			continue
		}
		in.peers = append(in.peers,
			newPeerLink(id, dial, in.cfg.HeartbeatInterval, &in.sent))
	}
	if s := uint64(len(in.peers) + 1); s > in.stride {
		in.stride = s
	}
}

// nextTerm returns the smallest term past cur that this instance is
// allowed to mint (its residue class mod stride). Callers hold in.mu.
func (in *Instance) nextTerm(cur uint64) uint64 {
	r := uint64(in.cfg.ID) % in.stride
	t := cur + 1
	if m := t % in.stride; m != r {
		t += (r - m + in.stride) % in.stride
	}
	return t
}

// Close stops the instance. Leases it holds are left to expire at
// their TTL on the peers (a crash and a Close look the same on the
// wire, which is the point).
func (in *Instance) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	conns := make([]*zof.Conn, 0, len(in.inbound))
	for c := range in.inbound {
		conns = append(conns, c)
	}
	peers := append([]*peerLink(nil), in.peers...)
	in.mu.Unlock()
	close(in.quit)
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.close()
	}
	in.wg.Wait()
	return nil
}

// IsMaster reports whether this instance currently holds dpid's lease.
func (in *Instance) IsMaster(dpid uint64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	l := in.leases[dpid]
	return l != nil && l.holder == in.cfg.ID
}

// Lease returns dpid's lease record, if known.
func (in *Instance) Lease(dpid uint64) (LeaseInfo, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	l, ok := in.leases[dpid]
	if !ok {
		return LeaseInfo{}, false
	}
	return LeaseInfo{DPID: dpid, Holder: l.holder, Term: l.term, Expires: l.expire}, true
}

// Takeovers counts leases this instance claimed away from another
// holder; Deposals counts leases it lost to one. LastTakeover is the
// claim-to-activation latency of the most recent takeover.
func (in *Instance) Takeovers() uint64           { return in.takeovers.Load() }
func (in *Instance) Deposals() uint64            { return in.deposals.Load() }
func (in *Instance) LastTakeover() time.Duration { return time.Duration(in.takeoverNanos.Load()) }
func (in *Instance) DeltasApplied() uint64       { return in.applied.Load() }
func (in *Instance) VersionVector() map[int]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[int]uint64, len(in.vv))
	for o, s := range in.vv {
		out[o] = s
	}
	return out
}

// expiredLocked reports whether l no longer protects its holder. A
// lease held locally never self-expires (the holder knows it is
// alive); foreign leases expire by TTL, pulled earlier by the
// peer-death fast path or a Release.
func (in *Instance) expiredLocked(l *lease) bool {
	if l.holder == in.cfg.ID {
		return false
	}
	return !time.Now().Before(l.expire)
}

func (in *Instance) ownedLocked(dpid uint64) bool {
	sc, ok := in.c.Switch(dpid)
	return ok && sc.Active()
}

// maybeAcquire claims dpid's lease if it is free (never claimed,
// released, or expired) and a connection to the switch exists. The
// claim is optimistic — broadcast first, then fenced at the switch by
// SetRole(Master, term): if a rival won a newer term there, the claim
// rolls back and the instance stands aside. On success the switch is
// activated: apps reinstall intent under this instance's epoch, and
// (for a returning DPID) reconciliation flushes only stale-epoch rules
// — never a full wipe, so traffic under still-correct rules keeps
// forwarding through the takeover.
func (in *Instance) maybeAcquire(dpid uint64) {
	sc, ok := in.c.Switch(dpid)
	if !ok {
		return
	}
	in.mu.Lock()
	if in.closed || in.acquiring[dpid] {
		in.mu.Unlock()
		return
	}
	l := in.leases[dpid]
	if l != nil && l.holder != in.cfg.ID && !in.expiredLocked(l) {
		in.mu.Unlock()
		return // a live peer holds it; stay standby until expiry
	}
	takeover := l != nil && l.holder != in.cfg.ID && l.holder >= 0
	term := in.nextTerm(0)
	if l != nil {
		if l.holder == in.cfg.ID {
			term = l.term // re-activation after a flap: same lease
		} else {
			term = in.nextTerm(l.term)
		}
	}
	in.leases[dpid] = &lease{holder: in.cfg.ID, term: term}
	in.acquiring[dpid] = true
	in.mu.Unlock()

	start := time.Now()
	in.broadcast(&envelope{Kind: kindClaim, DPID: dpid, Term: term})
	_, err := sc.SetRole(zof.RoleMaster, term, roleTimeout)
	if err == nil {
		err = in.c.ActivateSwitch(dpid)
	}
	in.mu.Lock()
	delete(in.acquiring, dpid)
	if err != nil {
		// Fenced (a rival holds a newer generation at the switch) or
		// the connection died mid-claim: stand aside, keep the term
		// so the next claim moves past it.
		if cur := in.leases[dpid]; cur != nil && cur.holder == in.cfg.ID && cur.term == term {
			cur.holder = -1
			cur.expire = time.Now()
		}
		in.mu.Unlock()
		in.cfg.Logf("cluster %d: claim of %#x term %d failed: %v", in.cfg.ID, dpid, term, err)
		return
	}
	in.mu.Unlock()
	if takeover {
		in.takeovers.Add(1)
		in.takeoverNanos.Store(int64(time.Since(start)))
	}
	in.cfg.Logf("cluster %d: mastering %#x at term %d (takeover=%v)", in.cfg.ID, dpid, term, takeover)
}

// switchGone releases dpid's lease if this instance holds it: the
// connection is gone, so mastership is worthless — handing the lease
// back lets whichever peer the switch re-homes onto claim without
// waiting out the TTL.
func (in *Instance) switchGone(dpid uint64) {
	in.mu.Lock()
	l := in.leases[dpid]
	if l == nil || l.holder != in.cfg.ID {
		in.mu.Unlock()
		return
	}
	term := l.term
	l.holder = -1
	l.expire = time.Now()
	in.mu.Unlock()
	in.broadcast(&envelope{Kind: kindRelease, DPID: dpid, Term: term})
}

// standDown reacts to losing dpid's lease to a newer term: demote this
// instance's connection at the switch (the new master's claim already
// fenced it; the explicit Slave role also silences its async stream)
// and tell the local apps the switch is gone.
func (in *Instance) standDown(dpid uint64, term uint64) {
	in.deposals.Add(1)
	in.cfg.Logf("cluster %d: deposed from %#x by term %d", in.cfg.ID, dpid, term)
	if sc, ok := in.c.Switch(dpid); ok {
		go func() {
			_, _ = sc.SetRole(zof.RoleSlave, term, roleTimeout)
		}()
	}
	in.c.DeactivateSwitch(dpid)
}

// handle dispatches one inbound envelope (transport read goroutines).
func (in *Instance) handle(env *envelope) {
	switch env.Kind {
	case kindHeartbeat:
		in.onHeartbeat(env)
	case kindClaim:
		in.onClaim(env)
	case kindRelease:
		in.onRelease(env)
	case kindDeltas:
		in.ingest(env.From, env.Origin, env.First, env.Deltas)
	case kindRequest:
		in.serveRequest(env.From, env.Want)
	}
}

func (in *Instance) onHeartbeat(env *envelope) {
	in.heartbeatsRecv.Add(1)
	now := time.Now()
	type dep struct {
		dpid uint64
		term uint64
	}
	var deposed []dep
	in.mu.Lock()
	in.peerSeen[env.From] = now
	for _, r := range env.Renewals {
		l := in.leases[r.DPID]
		switch {
		case l == nil || r.Term > l.term:
			if l != nil && l.holder == in.cfg.ID {
				deposed = append(deposed, dep{r.DPID, r.Term})
			}
			in.leases[r.DPID] = &lease{holder: env.From, term: r.Term, expire: now.Add(in.cfg.LeaseTTL)}
		case r.Term == l.term && l.holder == env.From:
			l.expire = now.Add(in.cfg.LeaseTTL) // renewal
		}
	}
	behind := false
	for oStr, theirs := range env.VV {
		if o, err := strconv.Atoi(oStr); err == nil && theirs > in.vv[o] {
			behind = true
		}
	}
	var want map[string]uint64
	if behind {
		want = in.wantLocked()
	}
	in.mu.Unlock()
	for _, d := range deposed {
		in.standDown(d.dpid, d.term)
	}
	if want != nil {
		in.sendTo(env.From, &envelope{Kind: kindRequest, Want: want})
	}
}

func (in *Instance) onClaim(env *envelope) {
	now := time.Now()
	in.mu.Lock()
	l := in.leases[env.DPID]
	accept := l == nil || env.Term > l.term
	wasMine := l != nil && l.holder == in.cfg.ID
	if accept {
		in.leases[env.DPID] = &lease{holder: env.From, term: env.Term, expire: now.Add(in.cfg.LeaseTTL)}
	}
	in.mu.Unlock()
	if accept && wasMine {
		in.standDown(env.DPID, env.Term)
	}
}

func (in *Instance) onRelease(env *envelope) {
	in.mu.Lock()
	if l := in.leases[env.DPID]; l != nil && l.holder == env.From && l.term == env.Term {
		l.holder = -1
		l.expire = time.Now()
	}
	in.mu.Unlock()
}

// tickLoop is the instance's clock: heartbeat+renewal fan-out, the
// peer-death fast path, and the sweep that retries claims for every
// connected-but-unowned switch (covering lease expiry, claims that
// lost a race, and hooks that fired before Bind).
func (in *Instance) tickLoop() {
	defer in.wg.Done()
	t := time.NewTicker(in.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-in.quit:
			return
		case <-t.C:
		}
		in.heartbeat()
		in.expireDeadPeers()
		for _, sc := range in.c.Switches() {
			if !sc.Active() {
				in.maybeAcquire(sc.DPID())
			}
		}
	}
}

func (in *Instance) heartbeat() {
	in.mu.Lock()
	var renewals []leaseRenewal
	for dpid, l := range in.leases {
		if l.holder == in.cfg.ID {
			renewals = append(renewals, leaseRenewal{DPID: dpid, Term: l.term})
		}
	}
	vv := in.wantLocked()
	in.mu.Unlock()
	in.broadcast(&envelope{Kind: kindHeartbeat, Renewals: renewals, VV: vv})
	in.heartbeatsSent.Add(1)
}

// expireDeadPeers is the fast failure path: a peer silent past the
// miss budget has its leases expired now rather than at TTL — the
// liveness signal (heartbeats) and the safety signal (lease terms) are
// separate, so expiring early risks a dual claim only briefly and the
// term fencing at the switch resolves it.
func (in *Instance) expireDeadPeers() {
	budget := peerMisses * in.cfg.HeartbeatInterval
	now := time.Now()
	in.mu.Lock()
	for id, seen := range in.peerSeen {
		if now.Sub(seen) <= budget {
			continue
		}
		for _, l := range in.leases {
			if l.holder == id && l.expire.After(now) {
				l.expire = now
			}
		}
	}
	in.mu.Unlock()
}

// RegisterMetrics publishes the instance's counters (the observer app
// forwards the controller's registry scope here).
func (in *Instance) RegisterMetrics(sc obs.Scope) {
	sc.RegisterFunc("takeovers", func() int64 { return int64(in.takeovers.Load()) })
	sc.RegisterFunc("deposals", func() int64 { return int64(in.deposals.Load()) })
	sc.RegisterFunc("heartbeats_sent", func() int64 { return int64(in.heartbeatsSent.Load()) })
	sc.RegisterFunc("heartbeats_recv", func() int64 { return int64(in.heartbeatsRecv.Load()) })
	sc.RegisterFunc("deltas_applied", func() int64 { return int64(in.applied.Load()) })
	sc.RegisterFunc("msgs_sent", func() int64 { return int64(in.sent.Load()) })
	sc.RegisterFunc("last_takeover_ns", func() int64 { return in.takeoverNanos.Load() })
	sc.RegisterFunc("leases_held", func() int64 {
		in.mu.Lock()
		defer in.mu.Unlock()
		n := int64(0)
		for _, l := range in.leases {
			if l.holder == in.cfg.ID {
				n++
			}
		}
		return n
	})
}
