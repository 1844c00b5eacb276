package controller

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// lifeRec records full lifecycle events (the plain recorder keeps only
// DPIDs; fault tests need the Reconnect flag).
type lifeRec struct {
	mu    sync.Mutex
	ups   []SwitchUp
	downs []SwitchDown
}

func (r *lifeRec) Name() string { return "life-rec" }
func (r *lifeRec) SwitchUp(c *Controller, ev SwitchUp) {
	r.mu.Lock()
	r.ups = append(r.ups, ev)
	r.mu.Unlock()
}
func (r *lifeRec) SwitchDown(c *Controller, ev SwitchDown) {
	r.mu.Lock()
	r.downs = append(r.downs, ev)
	r.mu.Unlock()
}
func (r *lifeRec) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ups), len(r.downs)
}

// TestEchoPayloadRoundTrip covers both directions of the echo-payload
// contract: steady-state Echo verifies the peer returned the bytes,
// and the controller's handshake loop echoes an early EchoRequest's
// payload instead of replying empty.
func TestEchoPayloadRoundTrip(t *testing.T) {
	ctl, _, _ := newTestController(t, nil, 1)
	sc, ok := ctl.Switch(1)
	if !ok {
		t.Fatal("no switch 1")
	}
	if err := sc.conn.Echo([]byte("liveness-seq-0001"), 2*time.Second); err != nil {
		t.Fatalf("Echo: %v", err)
	}

	// A raw fake switch interleaves an EchoRequest before answering the
	// features request; the reply must carry the payload back. It speaks
	// frames below zof.Conn, which keeps echoes to itself.
	raw, side := netem.StreamPair()
	ctl.Serve(side)
	defer raw.Close()
	if err := writeMsg(raw, &zof.Hello{}); err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	_ = raw.SetDeadline(time.Now().Add(2 * time.Second))
	for {
		msg, _, err := readMsg(raw)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *zof.FeaturesRequest:
			if err := writeMsg(raw, &zof.EchoRequest{Data: payload}); err != nil {
				t.Fatal(err)
			}
		case *zof.EchoReply:
			if !bytes.Equal(m.Data, payload) {
				t.Fatalf("handshake echo reply payload = %x, want %x", m.Data, payload)
			}
			return
		}
	}
}

// writeMsg frames msg onto w, below zof.Conn.
func writeMsg(w io.Writer, msg zof.Message) error {
	b, err := zof.Marshal(msg, 1)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// readMsg reads one frame off r, below zof.Conn.
func readMsg(r io.Reader) (zof.Message, zof.Header, error) {
	frame := make([]byte, zof.HeaderLen)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, zof.Header{}, err
	}
	h, err := zof.DecodeHeader(frame)
	if err != nil {
		return nil, h, err
	}
	frame = append(frame, make([]byte, int(h.Length)-zof.HeaderLen)...)
	if _, err := io.ReadFull(r, frame[zof.HeaderLen:]); err != nil {
		return nil, h, err
	}
	return zof.Unmarshal(frame)
}

// TestDupDPIDReconnectTeardown is the regression test for the dup-DPID
// teardown bug: when a reconnecting datapath displaces the old session,
// the old session's teardown must not remove the switch from the NIB or
// post a SwitchDown — a newer connection owns the DPID.
func TestDupDPIDReconnectTeardown(t *testing.T) {
	rec := &lifeRec{}
	// rec must join after the first session's SwitchUp is dispatched:
	// WaitForSwitches returns on registration, which precedes dispatch.
	initial := &recorder{}
	ctl, _, _ := newTestController(t, initial, 1)
	waitUntil(t, 2*time.Second, func() bool { ups, _, _ := initial.counts(); return ups == 1 })
	ctl.Use(rec)
	first, _ := ctl.Switch(1)

	sw2 := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw2.AddPort(1, "x", 10)
	dp2, err := attach(sw2, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, 2*time.Second, func() bool {
		cur, ok := ctl.Switch(1)
		return ok && cur != first
	})
	// Let the displaced session's teardown run to completion.
	select {
	case <-first.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("displaced connection not closed")
	}
	time.Sleep(50 * time.Millisecond)

	ups, downs := rec.counts()
	if downs != 0 {
		t.Errorf("SwitchDown posted for a displaced session (downs=%d)", downs)
	}
	if ups != 1 {
		t.Errorf("reconnect SwitchUp events = %d, want 1", ups)
	}
	rec.mu.Lock()
	if len(rec.ups) > 0 && !rec.ups[0].Reconnect {
		t.Error("reconnect SwitchUp lacked Reconnect flag")
	}
	rec.mu.Unlock()
	if !hasSwitch(ctl.NIB(), 1) {
		t.Error("NIB lost the switch during dup-DPID teardown")
	}
	cur, _ := ctl.Switch(1)
	if cur.Epoch() == first.Epoch() {
		t.Error("new session did not get a fresh epoch")
	}
	if err := cur.Barrier(2 * time.Second); err != nil {
		t.Errorf("new connection barrier: %v", err)
	}
}

// TestDupDPIDReconnectHammer races many same-DPID reconnects against
// each other's teardowns (run under -race in CI). The registry and NIB
// must converge to the newest session, and because every connection
// here dies by displacement — never while current — the linearized
// lifecycle stream must contain one SwitchUp per registration and no
// SwitchDown at all (the dup-DPID teardown bug posted one per
// displaced session).
func TestDupDPIDReconnectHammer(t *testing.T) {
	rec := &lifeRec{}
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(rec)

	const rounds = 30
	for i := 0; i < rounds; i++ {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: 7})
		sw.AddPort(1, "p", 10)
		dp, err := attach(sw, netem.NewChannel(ctl.Serve))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
	}

	// Converge: every round has registered (the controller numbers each
	// registration's session epoch), the newest session is usable, the
	// NIB agrees, and the recorder has seen as many SwitchUps.
	waitUntil(t, 5*time.Second, func() bool {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		return ctl.nextEpoch == rounds
	})
	waitUntil(t, 5*time.Second, func() bool {
		sc, ok := ctl.Switch(7)
		if !ok || !hasSwitch(ctl.NIB(), 7) {
			return false
		}
		return sc.Barrier(time.Second) == nil
	})
	waitUntil(t, 5*time.Second, func() bool { ups, _ := rec.counts(); return ups >= rounds })
	ups, downs := rec.counts()
	if downs != 0 {
		t.Errorf("SwitchDown posted for displaced sessions: downs=%d, want 0", downs)
	}
	if ups != rounds {
		t.Errorf("ups = %d, want one per registration (%d)", ups, rounds)
	}
}

// attach runs sw's session over a new stream on channel.
func attach(sw *dataplane.Switch, channel *netem.Channel) (*dataplane.Datapath, error) {
	conn, err := channel.Dial()
	if err != nil {
		return nil, err
	}
	return dataplane.Attach(sw, conn)
}

// TestLivenessEviction blackholes the control channel (bytes discarded,
// nothing closed) and requires the prober to evict within its budget:
// exactly one SwitchDown, measured detection within interval × misses,
// and pending requests failed fast with ErrConnClosed.
func TestLivenessEviction(t *testing.T) {
	const (
		interval = 30 * time.Millisecond
		timeout  = 24 * time.Millisecond
		misses   = 3
	)
	rec := &lifeRec{}
	ctl, err := New(Config{
		ProbeInterval: interval,
		ProbeTimeout:  timeout,
		ProbeMisses:   misses,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(rec)

	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 3})
	sw.AddPort(1, "p", 10)
	dp, err := attach(sw, channel)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	waitUntil(t, 2*time.Second, func() bool { u, _ := rec.counts(); return u == 1 })
	sc, _ := ctl.Switch(3)

	channel.Blackhole(true)
	// A request issued into the blackhole must fail fast on eviction,
	// not ride out its own 5s timeout.
	statsErr := make(chan error, 1)
	go func() {
		_, err := sc.Stats(&zof.StatsRequest{Kind: zof.StatsTable}, 5*time.Second)
		statsErr <- err
	}()

	// Eviction within the detection bound plus one interval of tick
	// alignment and scheduling slack.
	waitUntil(t, time.Duration(misses+3)*interval+time.Second, func() bool {
		_, d := rec.counts()
		return d == 1
	})
	detNS, _ := ctl.Metrics().Value("controller.liveness.last_detection_ns")
	if det := time.Duration(detNS); det <= 0 || det > time.Duration(misses)*interval {
		t.Errorf("detection latency %v outside (0, %v]", det, time.Duration(misses)*interval)
	}
	if ev, _ := ctl.Metrics().Value("controller.liveness.evictions"); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	select {
	case err := <-statsErr:
		if !errors.Is(err, zof.ErrConnClosed) {
			t.Errorf("pending request failed with %v, want ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("pending request did not fail fast on eviction")
	}
	if _, ok := ctl.Switch(3); ok {
		t.Error("evicted switch still registered")
	}
	if hasSwitch(ctl.NIB(), 3) {
		t.Error("evicted switch still in NIB")
	}
	// Exactly one SwitchDown: no duplicate teardown events trail in.
	time.Sleep(3 * interval)
	if _, d := rec.counts(); d != 1 {
		t.Errorf("SwitchDown events = %d, want exactly 1", d)
	}
}

// reinstaller mimics a proactive app (ACL-style): a rule set pushed to
// every switch on SwitchUp, keyed by app cookie.
type reinstaller struct {
	mu    sync.Mutex
	rules map[uint64]zof.Match
}

// newReinstaller pushes n rules, cookies 1..n, each matching its own
// source MAC.
func newReinstaller(n int) *reinstaller {
	a := &reinstaller{rules: make(map[uint64]zof.Match)}
	for i := uint64(1); i <= uint64(n); i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc[5] = byte(i)
		a.rules[i] = m
	}
	return a
}

func (a *reinstaller) Name() string { return "reinstaller" }
func (a *reinstaller) SwitchUp(c *Controller, ev SwitchUp) {
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
		_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: m,
			Priority: 100, Cookie: id, BufferID: zof.NoBuffer})
	}
}
func (a *reinstaller) SwitchDown(c *Controller, ev SwitchDown) {}

func (a *reinstaller) retire(id uint64) {
	a.mu.Lock()
	delete(a.rules, id)
	a.mu.Unlock()
}

// TestReconnectReconciliation flaps the control channel of a switch
// that keeps its flow table, retires one rule while partitioned, and
// requires the re-attach to converge: intended rules present under the
// fresh epoch, the retired rule's stale entry flushed by cookie
// reconciliation.
func TestReconnectReconciliation(t *testing.T) {
	rec := &lifeRec{}
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	app := newReinstaller(4)
	ctl.Use(app)
	ctl.Use(rec)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 5})
	sw.AddPort(1, "p", 10)
	dp1, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { u, _ := rec.counts(); return u == 1 })
	waitUntil(t, 2*time.Second, func() bool { return sw.FlowCount() == 4 })

	// Flap: the channel dies, the table survives. While partitioned one
	// rule is retired — only reconciliation can remove it from the
	// switch.
	dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { _, d := rec.counts(); return d == 1 })
	app.retire(1)

	dp2, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, 2*time.Second, func() bool { u, _ := rec.counts(); return u == 2 })
	rec.mu.Lock()
	reconnect := rec.ups[1].Reconnect
	rec.mu.Unlock()
	if !reconnect {
		t.Error("re-attach SwitchUp lacked Reconnect flag")
	}

	sc, ok := ctl.Switch(5)
	if !ok {
		t.Fatal("switch not registered after re-attach")
	}
	waitUntil(t, 5*time.Second, func() bool {
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		if err != nil || len(rep.Flows) != 3 {
			return false
		}
		for _, f := range rep.Flows {
			if CookieEpoch(f.Cookie) != sc.Epoch() {
				return false
			}
		}
		return true
	})
	if got, _ := ctl.Metrics().Value("controller.liveness.stale_flows"); got < 1 {
		t.Errorf("stale flows flushed = %d, want >= 1", got)
	}
	if rec, _ := ctl.Metrics().Value("controller.liveness.reconciles"); rec < 1 {
		t.Error("no reconciliation pass completed")
	}
}

// holdReconnect holds every re-attach's SwitchUp for hold, as a handler
// waiting out a Txn against a mute switch does.
type holdReconnect struct{ hold time.Duration }

func (holdReconnect) Name() string { return "hold-reconnect" }
func (h holdReconnect) SwitchUp(c *Controller, ev SwitchUp) {
	if ev.Reconnect {
		time.Sleep(h.hold)
	}
}
func (holdReconnect) SwitchDown(c *Controller, ev SwitchDown) {}

// TestReconciliationWaitsForSlowApp holds a re-attach's SwitchUp in an
// app ahead of the reinstaller for longer than the reconcile timeout.
// The flush must still follow the reinstall: of the four old-epoch
// rules only the one retired while disconnected is stale; the other
// three are replaced under the fresh epoch, never flushed first.
func TestReconciliationWaitsForSlowApp(t *testing.T) {
	ctl, err := New(Config{DispatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	app := newReinstaller(4)
	rec := &lifeRec{}
	ctl.Use(holdReconnect{reconcileTimeout + time.Second}, app, rec)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 6})
	sw.AddPort(1, "p", 10)
	dp1, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { return sw.FlowCount() == 4 })
	dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { _, d := rec.counts(); return d == 1 })
	app.retire(1)

	dp2, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, reconcileTimeout+5*time.Second, func() bool {
		n, _ := ctl.Metrics().Value("controller.liveness.reconciles")
		return n == 1
	})
	sc, ok := ctl.Switch(6)
	if !ok {
		t.Fatal("switch not registered after re-attach")
	}
	waitUntil(t, 2*time.Second, func() bool {
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		if err != nil || len(rep.Flows) != 3 {
			return false
		}
		for _, f := range rep.Flows {
			if CookieEpoch(f.Cookie) != sc.Epoch() {
				return false
			}
		}
		return true
	})
	if got, _ := ctl.Metrics().Value("controller.liveness.stale_flows"); got != 1 {
		t.Errorf("stale flows flushed = %d, want 1 (the retired rule only)", got)
	}
}

// gate holds the dispatch worker on a SwitchDown for DPID 0: it closes
// held, then waits for open.
type gate struct{ held, open chan struct{} }

func (gate) Name() string                        { return "gate" }
func (gate) SwitchUp(c *Controller, ev SwitchUp) {}
func (g gate) SwitchDown(c *Controller, ev SwitchDown) {
	if ev.DPID == 0 {
		close(g.held)
		<-g.open
	}
}

// TestReconciliationAfterShedSwitchUp fills the control lane behind a
// stuck handler, so a re-attach's SwitchUp is shed. No app will
// reinstall for it, so the pass must start at once and flush every
// old-epoch rule while the worker is still stuck.
func TestReconciliationAfterShedSwitchUp(t *testing.T) {
	ctl, err := New(Config{DispatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	app := newReinstaller(4)
	g := gate{held: make(chan struct{}), open: make(chan struct{})}
	rec := &lifeRec{}
	ctl.Use(g, app, rec)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 7})
	sw.AddPort(1, "p", 10)
	dp1, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { return sw.FlowCount() == 4 })
	dp1.Close()
	waitUntil(t, 2*time.Second, func() bool { _, d := rec.counts(); return d == 1 })

	// One SwitchDown holds the worker; then the lane fills.
	defer close(g.open)
	ctl.InjectEvent(SwitchDown{})
	<-g.held
	for len(ctl.ctlShards[0]) < cap(ctl.ctlShards[0]) {
		ctl.InjectEvent(SwitchDown{DPID: 1})
	}
	dp2, err := attach(sw, netem.NewChannel(ctl.Serve))
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	waitUntil(t, 2*time.Second, func() bool { return sw.FlowCount() == 0 })
	if got, _ := ctl.Metrics().Value("controller.liveness.stale_flows"); got != 4 {
		t.Errorf("stale flows flushed = %d, want 4", got)
	}
	if ctl.stats.Dropped.Value() != 1 {
		t.Error("the re-attach's SwitchUp was not shed")
	}
}

// reattachRig is one switch, DPID 9, holding four rules a committed
// Txn installed and no app re-asserts, on a controller with the given
// audit interval.
type reattachRig struct {
	ctl     *Controller
	channel *netem.Channel
	dp      *dataplane.Datapath
	sw      *dataplane.Switch
	before  string // the switch's table after the commit
}

func newReattachRig(t *testing.T, audit time.Duration, apps ...App) *reattachRig {
	t.Helper()
	ctl, err := New(Config{AuditInterval: audit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	ctl.Use(apps...)
	r := &reattachRig{ctl: ctl, channel: netem.NewChannel(ctl.Serve)}
	t.Cleanup(func() { r.channel.Close() })
	r.attach(t, false)
	txn := ctl.NewTxn()
	for i := 0; i < 4; i++ {
		txn.Flow(9, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i), Priority: 100,
			Cookie: uint64(i + 1), BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}})
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	sc, _ := ctl.Switch(9)
	r.before = tableSnapshot(t, sc)
	return r
}

// attach starts a session for the rig's switch, a new empty one when
// crashed, and waits for it to register.
func (r *reattachRig) attach(t *testing.T, crashed bool) {
	t.Helper()
	if r.sw == nil || crashed {
		r.sw = dataplane.NewSwitch(dataplane.Config{DPID: 9})
		r.sw.AddPort(1, "p1", 1000)
		r.sw.AddPort(2, "p2", 1000)
	}
	dp, err := attach(r.sw, r.channel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dp.Close() })
	r.dp = dp
	waitUntil(t, 2*time.Second, func() bool { _, ok := r.ctl.Switch(9); return ok })
}

// reattach ends the session — on a crash the switch's table goes with
// it — and attaches again.
func (r *reattachRig) reattach(t *testing.T, crashed bool) {
	t.Helper()
	r.dp.Close()
	waitUntil(t, 2*time.Second, func() bool { _, ok := r.ctl.Switch(9); return !ok })
	r.attach(t, crashed)
}

// TestReconciliationContract pins what a re-attach does with old-epoch
// intent no app re-asserts, with the periodic auditor off and on. A
// flap leaves the switch its table: the four rules are an earlier
// session's leftovers, retired from switch and store. A crash-restart
// empties the switch: the intent it lost is restored from the store,
// cookies and all. Either way the switch's table ends equal to the
// store.
func TestReconciliationContract(t *testing.T) {
	for _, crash := range []bool{false, true} {
		for _, audit := range []time.Duration{0, 20 * time.Millisecond} {
			t.Run(fmt.Sprintf("crash=%v/audit=%v", crash, audit), func(t *testing.T) {
				r := newReattachRig(t, audit)
				r.reattach(t, crash)
				waitUntil(t, 5*time.Second, func() bool {
					n, _ := r.ctl.Metrics().Value("controller.liveness.reconciles")
					return n == 1
				})
				sc, ok := r.ctl.Switch(9)
				if !ok {
					t.Fatal("switch not registered after re-attach")
				}
				want, flows, stale := "", 0, int64(4)
				if crash {
					want, flows, stale = r.before, 4, 0
				}
				if table, intent := tableSnapshot(t, sc), intentSnapshot(r.ctl, 9); table != want || intent != want {
					t.Errorf("switch %d flows, store %d; want %d in both, cookies unchanged\nswitch:\n%s\nstore:\n%s",
						r.sw.FlowCount(), len(r.ctl.IntendedFlows(9)), flows, table, intent)
				}
				if got, _ := r.ctl.Metrics().Value("controller.liveness.stale_flows"); got != stale {
					t.Errorf("stale flows = %d, want %d", got, stale)
				}
			})
		}
	}
}

// TestReconciliationGateHoldsAudit holds a crash-restart's SwitchUp in
// an app for ten audit intervals. Periodic audits must wait for the
// first pass: one run meanwhile would re-add the lost old-epoch intent,
// and the first pass would then flush it from switch and store as an
// earlier session's leftovers.
func TestReconciliationGateHoldsAudit(t *testing.T) {
	r := newReattachRig(t, 10*time.Millisecond, holdReconnect{100 * time.Millisecond})
	r.reattach(t, true)
	waitUntil(t, 5*time.Second, func() bool {
		n, _ := r.ctl.Metrics().Value("controller.liveness.reconciles")
		return n == 1
	})
	audits, _ := r.ctl.Metrics().Value("controller.audit.audits")
	waitUntil(t, 5*time.Second, func() bool {
		n, _ := r.ctl.Metrics().Value("controller.audit.audits")
		return n >= audits+2
	})
	sc, _ := r.ctl.Switch(9)
	if table, intent := tableSnapshot(t, sc), intentSnapshot(r.ctl, 9); table != r.before || intent != r.before {
		t.Errorf("switch %d flows, store %d; want the 4 committed in both\nswitch:\n%s\nstore:\n%s",
			r.sw.FlowCount(), len(r.ctl.IntendedFlows(9)), table, intent)
	}
}

// TestReconciliationCountsFailedPass rejects the stale deletes of a
// flap's first pass. The failure is counted as an audit failure, not a
// completed reconcile, and the gate still drops: once the switch
// accepts deletes again, periodic audits flush the leftovers the pass
// already retired from the store.
func TestReconciliationCountsFailedPass(t *testing.T) {
	r := newReattachRig(t, 20*time.Millisecond)
	r.channel.SetFlowModPolicy(func(fm *zof.FlowMod) (netem.FlowModDecision, uint16) {
		if fm.Command == zof.FlowDeleteStrict {
			return netem.FlowModReject, zof.ErrCodeBadRequest
		}
		return netem.FlowModPass, 0
	})
	r.reattach(t, false)
	waitUntil(t, 5*time.Second, func() bool {
		n, _ := r.ctl.Metrics().Value("controller.audit.failures")
		return n >= 1
	})
	if n, _ := r.ctl.Metrics().Value("controller.liveness.reconciles"); n != 0 {
		t.Errorf("reconciles = %d after a failed first pass, want 0", n)
	}
	r.channel.SetFlowModPolicy(nil)
	waitUntil(t, 5*time.Second, func() bool {
		n, _ := r.ctl.Metrics().Value("controller.audit.audits")
		return n >= 1
	})
	if n, m := r.sw.FlowCount(), len(r.ctl.IntendedFlows(9)); n != 0 || m != 0 {
		t.Errorf("switch %d flows, store %d after a periodic audit; want 0 and 0", n, m)
	}
}

// TestStatsPastOneFrameFailsOnlyTheRequest asks a switch holding 700
// flows for all of them. The reply (about 101 bytes a flow) cannot fit
// a zof frame, whose length field is 16 bits: the request must fail at
// once with the switch's Error, and the session must stay up.
func TestStatsPastOneFrameFailsOnlyTheRequest(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 1)
	sc, _ := ctl.Switch(1)
	for i := 0; i < 700; i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc
		m.EthSrc = packet.MACFromUint64(uint64(i + 1))
		sws[0].Process(&zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: 10,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}}, 1,
			func(rep zof.Message, _ uint32) { t.Errorf("flow %d: %v", i, rep) })
	}
	_, err := sc.Stats(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 2*time.Second)
	var zerr *zof.Error
	if !errors.As(err, &zerr) {
		t.Fatalf("700-flow stats: err = %v, want the switch's zof.Error", err)
	}
	if cur, ok := ctl.Switch(1); !ok || cur != sc {
		t.Fatal("the session died with the oversized reply")
	}
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatalf("barrier after the oversized reply: %v", err)
	}
	rep, err := sc.Stats(&zof.StatsRequest{Kind: zof.StatsTable}, 2*time.Second)
	if err != nil || rep.Tables[0].ActiveCount != 700 {
		t.Fatalf("table stats after the oversized reply: %+v, %v", rep, err)
	}
}
