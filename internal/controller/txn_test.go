package controller

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/zof"
)

// txnHarness starts a controller (with cfg) plus datapaths built from
// swCfgs, waiting for all of them to register.
func txnHarness(t *testing.T, cfg Config, swCfgs ...dataplane.Config) (*Controller, []*dataplane.Switch) {
	t.Helper()
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	var sws []*dataplane.Switch
	for _, sc := range swCfgs {
		sw := dataplane.NewSwitch(sc)
		sw.AddPort(1, "p1", 1000)
		sw.AddPort(2, "p2", 1000)
		dp, err := attach(sw, netem.NewChannel(ctl.Serve))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
		sws = append(sws, sw)
	}
	if err := ctl.WaitForSwitches(len(swCfgs), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return ctl, sws
}

func txnMatch(i int) zof.Match {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthDst
	m.EthDst[0] = 2
	m.EthDst[4] = byte(i >> 8)
	m.EthDst[5] = byte(i)
	return m
}

// tableSnapshot renders a switch's flow table via FlowStats in
// canonical counter-free form.
func tableSnapshot(t *testing.T, sc *SwitchConn) string {
	t.Helper()
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, 2*time.Second)
	if err != nil {
		t.Fatalf("stats from %#x: %v", sc.DPID(), err)
	}
	lines := make([]string, 0, len(rep.Flows))
	for _, f := range rep.Flows {
		lines = append(lines, fmt.Sprintf("t%d p%d %v c%#x it%d ht%d %v",
			f.TableID, f.Priority, f.Match, f.Cookie, f.IdleTimeout, f.HardTimeout, f.Actions))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestTxnCommitMultiSwitch(t *testing.T) {
	ctl, sws := txnHarness(t, Config{}, dataplane.Config{DPID: 1}, dataplane.Config{DPID: 2})
	txn := ctl.NewTxn()
	for dpid := uint64(1); dpid <= 2; dpid++ {
		txn.Group(dpid, &zof.GroupMod{
			Command: zof.GroupAdd, GroupType: zof.GroupTypeSelect, GroupID: 7,
			Buckets: []zof.GroupBucket{{Weight: 1, Actions: []zof.Action{zof.Output(2)}}},
		})
		for i := 0; i < 3; i++ {
			txn.Flow(dpid, &zof.FlowMod{
				Command: zof.FlowAdd, Match: txnMatch(i), Priority: 100,
				Cookie: uint64(10 + i), BufferID: zof.NoBuffer,
				Actions: []zof.Action{zof.Group(7)},
			})
		}
	}
	if got := txn.Pending(); got != 8 {
		t.Fatalf("pending = %d, want 8", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, sw := range sws {
		if n := sw.FlowCount(); n != 3 {
			t.Errorf("switch %d flows = %d, want 3", sw.DPID(), n)
		}
	}
	if got, _ := ctl.Metrics().Value("controller.txn.commits"); got != 1 {
		t.Errorf("commits = %d", got)
	}
	if ctl.Metrics().Histogram("controller.txn.latency").Count() != 1 {
		t.Error("latency not observed")
	}
	if len(ctl.IntendedFlows(1)) != 3 || len(ctl.IntendedFlows(2)) != 3 {
		t.Error("intended state not committed")
	}
	// Double commit is an error.
	if err := txn.Commit(); !errors.Is(err, errTxnDone) {
		t.Errorf("double commit: %v", err)
	}
}

// TestTxnTableFullRollsBack drives a real table-full rejection: the
// victim's table 0 caps at 4 entries, the transaction pushes it to 5.
// The commit must abort, and every participant's flow table — including
// the op that landed before the rejected one — must be byte-identical
// to the pre-transaction state.
func TestTxnTableFullRollsBack(t *testing.T) {
	ctl, sws := txnHarness(t, Config{},
		dataplane.Config{DPID: 1, TableSizes: []int{4}},
		dataplane.Config{DPID: 2})
	sc1, _ := ctl.Switch(1)
	sc2, _ := ctl.Switch(2)

	pre := ctl.NewTxn()
	for i := 0; i < 3; i++ {
		pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
		pre.Flow(2, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	before1, before2 := tableSnapshot(t, sc1), tableSnapshot(t, sc2)
	storeBefore := len(ctl.IntendedFlows(1))

	over := ctl.NewTxn()
	for i := 3; i < 5; i++ { // 3+2 > 4: the 5th entry overflows
		over.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
		over.Flow(2, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
	}
	err := over.Commit()
	var terr *TxnError
	if !errors.As(err, &terr) {
		t.Fatalf("commit error = %v, want *TxnError", err)
	}
	if len(terr.Rejections) == 0 || terr.Rejections[0].Code != zof.ErrCodeTableFull {
		t.Fatalf("rejections = %v, want table-full", terr.Rejections)
	}
	if !terr.RolledBack {
		t.Fatalf("not rolled back: %v", terr)
	}
	if got := tableSnapshot(t, sc1); got != before1 {
		t.Errorf("switch 1 table diverged:\n got: %s\nwant: %s", got, before1)
	}
	if got := tableSnapshot(t, sc2); got != before2 {
		t.Errorf("switch 2 table diverged (uninvolved ops must roll back too)")
	}
	if got := len(ctl.IntendedFlows(1)); got != storeBefore {
		t.Errorf("store grew to %d on a failed commit", got)
	}
	aborts, _ := ctl.Metrics().Value("controller.txn.aborts")
	rollbacks, _ := ctl.Metrics().Value("controller.txn.rollbacks")
	if aborts != 1 || rollbacks != 1 {
		t.Errorf("aborts=%d rollbacks=%d", aborts, rollbacks)
	}
	if sws[0].FlowCount() != 3 || sws[1].FlowCount() != 3 {
		t.Errorf("flow counts %d/%d, want 3/3", sws[0].FlowCount(), sws[1].FlowCount())
	}
}

// TestTxnRollbackRestoresReplacedRule covers the replace-then-restore
// inverse: a transaction overwrites an existing rule (same match and
// priority, new cookie and actions) and then fails; rollback must
// restore the original rule, not merely delete the replacement.
func TestTxnRollbackRestoresReplacedRule(t *testing.T) {
	ctl, _ := txnHarness(t, Config{}, dataplane.Config{DPID: 1, TableSizes: []int{2}})
	sc, _ := ctl.Switch(1)

	pre := ctl.NewTxn()
	pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, Cookie: 0xAAA, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)}})
	pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(1),
		Priority: 100, Cookie: 0xBBB, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)}})
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	before := tableSnapshot(t, sc)

	txn := ctl.NewTxn()
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, Cookie: 0xCCC, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}) // replaces in place
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(9),
		Priority: 100, Cookie: 0xDDD, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}) // overflows the 2-entry table
	err := txn.Commit()
	var terr *TxnError
	if !errors.As(err, &terr) || !terr.RolledBack {
		t.Fatalf("commit = %v, want rolled-back TxnError", err)
	}
	if got := tableSnapshot(t, sc); got != before {
		t.Errorf("replaced rule not restored:\n got: %s\nwant: %s", got, before)
	}
}

// TestTxnGroupRollback: a failed transaction must undo its GroupAdd and
// the flow referencing it.
func TestTxnGroupRollback(t *testing.T) {
	ctl, sws := txnHarness(t, Config{}, dataplane.Config{DPID: 1, TableSizes: []int{2}})
	pre := ctl.NewTxn()
	pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, Cookie: 1, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)}})
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}

	txn := ctl.NewTxn()
	txn.Group(1, &zof.GroupMod{Command: zof.GroupAdd, GroupType: zof.GroupTypeSelect,
		GroupID: 42, Buckets: []zof.GroupBucket{{Weight: 1, Actions: []zof.Action{zof.Output(2)}}}})
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(1),
		Priority: 100, Cookie: 2, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Group(42)}})
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(2),
		Priority: 100, Cookie: 3, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}) // overflow → abort
	err := txn.Commit()
	var terr *TxnError
	if !errors.As(err, &terr) || !terr.RolledBack {
		t.Fatalf("commit = %v, want rolled-back TxnError", err)
	}
	if sws[0].FlowCount() != 1 {
		t.Errorf("flows = %d, want 1", sws[0].FlowCount())
	}
	// Probing with DeleteGroup: false means the rollback removed it.
	if sws[0].DeleteGroup(42) {
		t.Error("group 42 survived rollback")
	}
	if len(ctl.IntendedFlows(1)) != 1 {
		t.Error("store diverged")
	}
}

func TestTxnUnknownSwitchAborts(t *testing.T) {
	ctl, sws := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	txn := ctl.NewTxn()
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, BufferID: zof.NoBuffer})
	txn.Flow(99, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, BufferID: zof.NoBuffer})
	err := txn.Commit()
	var terr *TxnError
	if !errors.As(err, &terr) || !terr.RolledBack {
		t.Fatalf("commit = %v, want rolled-back TxnError", err)
	}
	if sws[0].FlowCount() != 0 {
		t.Error("ops reached a switch despite the unknown participant")
	}
	if len(ctl.IntendedFlows(1)) != 0 {
		t.Error("store recorded ops from an aborted commit")
	}
}

// TestTxnAsyncErrorHandler: an Error reply that matches no pending
// request and no transaction watcher must reach the controller-level
// handler with DPID, XID and code attached.
func TestTxnAsyncErrorHandler(t *testing.T) {
	var got atomic.Pointer[AsyncError]
	ctl, sws := txnHarness(t, Config{
		ErrorHandler: func(e AsyncError) { got.Store(&e) },
	}, dataplane.Config{DPID: 1})
	// An unsolicited install with a dangling group reference draws an
	// async Error the controller did not request.
	sc, _ := ctl.Switch(1)
	_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Group(404)}})
	waitUntil(t, 2*time.Second, func() bool { return got.Load() != nil })
	e := got.Load()
	if e.DPID != 1 || e.Code != zof.ErrCodeBadGroup || e.XID == 0 {
		t.Errorf("async error = %+v", *e)
	}
	if n, _ := ctl.Metrics().Value("controller.async_errors"); n != 1 {
		t.Errorf("counter = %d", n)
	}
	// The rejected install stays in the store as intent; the switch
	// never accepted it.
	if sws[0].FlowCount() != 0 {
		t.Error("invalid flow accepted")
	}
}

// TestTxnTimeoutOnMuteSwitch: a participant whose channel swallows
// everything without closing holds each of Commit's two waits — commit
// fences, rollback fences — for one TxnTimeout and no longer. The
// commit aborts naming the timeout, the healthy participant is rolled
// back byte-identically, and the mute switch's fences are taken back
// out of the reply map, so nothing can answer them once the channel
// comes back.
func TestTxnTimeoutOnMuteSwitch(t *testing.T) {
	ctl, err := New(Config{TxnTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	healthyCh, muteCh := netem.NewChannel(ctl.Serve), netem.NewChannel(ctl.Serve)
	defer muteCh.Close()
	for dpid, channel := range map[uint64]*netem.Channel{1: healthyCh, 2: muteCh} {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: dpid})
		sw.AddPort(1, "p1", 1000)
		sw.AddPort(2, "p2", 1000)
		dp, err := attach(sw, channel)
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
	}
	if err := ctl.WaitForSwitches(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	healthy, _ := ctl.Switch(1)
	mute, _ := ctl.Switch(2)
	pre := ctl.NewTxn()
	for dpid := uint64(1); dpid <= 2; dpid++ {
		pre.Flow(dpid, fenceRule(0))
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	before := tableSnapshot(t, healthy)

	muteCh.Blackhole(true) // switch 2's batches leave and vanish; its session stays up
	txn := ctl.NewTxn()
	for dpid := uint64(1); dpid <= 2; dpid++ {
		txn.Flow(dpid, fenceRule(1))
	}
	start := time.Now()
	err = txn.Commit()
	took := time.Since(start)
	var terr *TxnError
	if !errors.As(err, &terr) || terr.Err == nil || !strings.Contains(terr.Err.Error(), "timed out") {
		t.Fatalf("commit = %v, want a TxnError naming the timeout", err)
	}
	if took > 2*time.Second {
		t.Errorf("commit took %v on a 100ms TxnTimeout", took)
	}
	if got := tableSnapshot(t, healthy); got != before {
		t.Errorf("healthy switch not rolled back:\n got: %s\nwant: %s", got, before)
	}
	if n := pendingReplies(mute); n != 0 {
		t.Errorf("%d reply handlers left pending on the mute switch", n)
	}

	muteCh.Blackhole(false)
	if err := mute.Barrier(2 * time.Second); err != nil {
		t.Fatalf("mute switch's session did not survive: %v", err)
	}
	aborts, _ := ctl.Metrics().Value("controller.txn.aborts")
	commits, _ := ctl.Metrics().Value("controller.txn.commits")
	if aborts != 1 || commits != 1 || pendingReplies(mute) != 0 {
		t.Errorf("after the channel came back: aborts=%d commits=%d pending=%d, want 1, 1, 0",
			aborts, commits, pendingReplies(mute))
	}
}

// TestControllerBarrierJoinsErrors: the fleet-wide barrier runs
// concurrently and reports per-switch failures without masking the
// healthy majority.
func TestControllerBarrierJoinsErrors(t *testing.T) {
	ctl, _ := txnHarness(t, Config{},
		dataplane.Config{DPID: 1}, dataplane.Config{DPID: 2}, dataplane.Config{DPID: 3})
	if err := ctl.Barrier(2 * time.Second); err != nil {
		t.Fatalf("barrier over healthy fleet: %v", err)
	}
}

// TestTxnConcurrentCommits hammers overlapping multi-switch commits;
// ascending-DPID lock order means no deadlock, serialization means
// every commit's ops land atomically. Run with -race.
func TestTxnConcurrentCommits(t *testing.T) {
	ctl, sws := txnHarness(t, Config{},
		dataplane.Config{DPID: 1}, dataplane.Config{DPID: 2}, dataplane.Config{DPID: 3})
	const goroutines = 6
	const commits = 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				txn := ctl.NewTxn()
				// Overlapping pairs: (1,2), (2,3), (3,1), ...
				a := uint64(g%3 + 1)
				b := uint64((g+1)%3 + 1)
				for _, dpid := range []uint64{a, b} {
					txn.Flow(dpid, &zof.FlowMod{Command: zof.FlowAdd,
						Match: txnMatch(100 + g), Priority: 100,
						Cookie: uint64(g<<8 | i), BufferID: zof.NoBuffer,
						Actions: []zof.Action{zof.Output(2)}})
				}
				if err := txn.Commit(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got, _ := ctl.Metrics().Value("controller.txn.commits"); got != goroutines*commits {
		t.Errorf("commits = %d, want %d", got, goroutines*commits)
	}
	// Every switch holds exactly the distinct matches targeted at it.
	for _, sw := range sws {
		if n := sw.FlowCount(); n == 0 || n > goroutines {
			t.Errorf("switch %d flows = %d", sw.DPID(), n)
		}
	}
}

// TestTxnCommitVsReconnectRace races transactional commits against
// control-channel drops and the cookie-epoch resync that follows each
// reconnect. The invariant: once the dust settles, the auditor
// converges the switch's table to exactly the store's intent. Run with
// -race.
func TestTxnCommitVsReconnectRace(t *testing.T) {
	ctl, err := New(Config{AuditInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 1000)
	sw.AddPort(2, "p2", 1000)
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial: []func() (net.Conn, error){channel.Dial}, MinBackoff: 5 * time.Millisecond, Seed: 1,
	})
	defer sess.Close()
	if err := ctl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // committer: transactions racing the drops
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := ctl.NewTxn()
			txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd,
				Match: txnMatch(i % 8), Priority: 100,
				Cookie: uint64(0x5000 + i), BufferID: zof.NoBuffer,
				Actions: []zof.Action{zof.Output(2)}})
			_ = txn.Commit() // aborts during drops are expected
		}
	}()
	for i := 0; i < 5; i++ {
		time.Sleep(30 * time.Millisecond)
		channel.DropConnections()
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := ctl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Convergence: the switch's table must come to match the store's
	// intent exactly (the auditor repairs whatever the drops mangled).
	waitUntil(t, 5*time.Second, func() bool {
		sc, ok := ctl.Switch(1)
		if !ok {
			return false
		}
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		if err != nil {
			return false
		}
		intended := ctl.IntendedFlows(1)
		if len(rep.Flows) != len(intended) {
			return false
		}
		for _, f := range rep.Flows {
			want, ok := intended[FlowKey{f.TableID, f.Match, f.Priority}]
			if !ok || want.Cookie != f.Cookie {
				return false
			}
		}
		return true
	})
}

// TestTxnRollbackUnderMidCommitCrash kills the only participant's
// control channel while its ops are in flight, restarts the datapath
// empty, and requires the pre-transaction intent to reappear via
// reconnect plus anti-entropy repair. Run with -race.
func TestTxnRollbackUnderMidCommitCrash(t *testing.T) {
	ctl, err := New(Config{
		AuditInterval: 20 * time.Millisecond,
		TxnTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()
	mkSwitch := func() *dataplane.Switch {
		sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
		sw.AddPort(1, "p1", 1000)
		sw.AddPort(2, "p2", 1000)
		return sw
	}
	sess := dataplane.StartSession(mkSwitch(), dataplane.SessionConfig{
		Dial: []func() (net.Conn, error){channel.Dial}, MinBackoff: 5 * time.Millisecond, Seed: 1,
	})
	if err := ctl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	pre := ctl.NewTxn()
	for i := 0; i < 4; i++ {
		pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	sc, _ := ctl.Switch(1)
	before := tableSnapshot(t, sc)

	// Sever the session on the first transactional op, before anything
	// written behind it (the barrier) reaches the switch.
	channel.SetFlowModPolicy(func(fm *zof.FlowMod) (netem.FlowModDecision, uint16) {
		if fm.Command == zof.FlowAdd && fm.Cookie&(1<<48-1) == 0xDEAD {
			channel.DropConnections()
			return netem.FlowModDrop, 0
		}
		return netem.FlowModPass, 0
	})
	txn := ctl.NewTxn()
	txn.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(50),
		Priority: 100, Cookie: 0xDEAD, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}})
	if err := txn.Commit(); err == nil {
		t.Fatal("commit survived a mid-commit crash")
	}
	sess.Close()
	channel.SetFlowModPolicy(nil)

	// Empty restart: intent must reappear byte-identically.
	sess2 := dataplane.StartSession(mkSwitch(), dataplane.SessionConfig{
		Dial: []func() (net.Conn, error){channel.Dial}, MinBackoff: 5 * time.Millisecond, Seed: 2,
	})
	defer sess2.Close()
	waitUntil(t, 10*time.Second, func() bool {
		sc, ok := ctl.Switch(1)
		if !ok {
			return false
		}
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		if err != nil || len(rep.Flows) != 4 {
			return false
		}
		sc2, ok := ctl.Switch(1)
		return ok && tableSnapshotQuiet(sc2) == before
	})
}

// tableSnapshotQuiet is tableSnapshot without the test failure on a
// stats error (for use inside polling loops).
func tableSnapshotQuiet(sc *SwitchConn) string {
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, time.Second)
	if err != nil {
		return "<err>"
	}
	lines := make([]string, 0, len(rep.Flows))
	for _, f := range rep.Flows {
		lines = append(lines, fmt.Sprintf("t%d p%d %v c%#x it%d ht%d %v",
			f.TableID, f.Priority, f.Match, f.Cookie, f.IdleTimeout, f.HardTimeout, f.Actions))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
