package controller

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/zof"
)

// discardReply is a no-op reply sink for direct datapath mutation.
func discardReply(zof.Message, uint32) {}

// TestAuditRepairsDrift injects all three drift classes directly into
// the datapath — a deleted intended rule, a mutated rule, and an alien
// rule — and verifies one manual audit pass repairs them all.
func TestAuditRepairsDrift(t *testing.T) {
	ctl, sws := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)

	pre := ctl.NewTxn()
	for i := 0; i < 3; i++ {
		pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i),
			Priority: 100, Cookie: uint64(i), BufferID: zof.NoBuffer,
			Actions: []zof.Action{zof.Output(2)}})
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	before := tableSnapshot(t, sc)

	// Drift behind the controller's back.
	sws[0].Process(&zof.FlowMod{Command: zof.FlowDeleteStrict, Match: txnMatch(0),
		Priority: 100, BufferID: zof.NoBuffer}, 1, discardReply) // missing
	sws[0].Process(&zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(1),
		Priority: 100, Cookie: 0x666, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)}}, 2, discardReply) // mismatched
	sws[0].Process(&zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(9),
		Priority: 100, Cookie: 0x777, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(1)}}, 3, discardReply) // alien

	rep, err := ctl.AuditSwitch(sc)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Missing != 1 || rep.Mismatched != 1 || rep.Alien != 1 {
		t.Errorf("report = %+v, want 1/1/1", rep)
	}
	if got := tableSnapshot(t, sc); got != before {
		t.Errorf("table not repaired:\n got: %s\nwant: %s", got, before)
	}

	// Second pass over a converged table repairs nothing.
	rep, err = ctl.AuditSwitch(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repairs() != 0 {
		t.Errorf("quiescent pass repaired %d", rep.Repairs())
	}
}

// TestSendIsRecordedIntent: a FlowAdd sent with the bare Send verb is
// the controller's own rule like any other — stamped with the session
// epoch and in the intended-state store before it is on the wire — so
// the auditor finds nothing alien and the rule stays installed.
func TestSendIsRecordedIntent(t *testing.T) {
	ctl, _ := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)
	if err := sc.Send(&zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, Cookie: 7, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.AuditSwitch(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alien != 0 || rep.Repairs() != 0 {
		t.Errorf("report = %+v: the auditor repaired the controller's own rule", rep)
	}
	intended := ctl.IntendedFlows(1)
	if len(intended) != 1 {
		t.Fatalf("%d intended flows, want 1", len(intended))
	}
	for _, f := range intended {
		if CookieEpoch(f.Cookie) != sc.Epoch() {
			t.Errorf("cookie %#x carries epoch %d, want the session's %d", f.Cookie, CookieEpoch(f.Cookie), sc.Epoch())
		}
	}
	if got := tableSnapshot(t, sc); got == "" {
		t.Error("the rule is gone from the switch after the audit")
	}
}

// TestAuditRetiresExpired: an intended rule carrying an idle timeout
// that is gone from the switch expired legitimately — the auditor must
// retire it from the store, not resurrect it.
func TestAuditRetiresExpired(t *testing.T) {
	ctl, sws := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)
	pre := ctl.NewTxn()
	pre.Flow(1, &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(0),
		Priority: 100, Cookie: 1, IdleTimeout: 300, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}})
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	// The switch times the rule out (emulated by a direct delete; the
	// controller-side FlowRemoved path is exercised elsewhere).
	sws[0].Process(&zof.FlowMod{Command: zof.FlowDeleteStrict, Match: txnMatch(0),
		Priority: 100, BufferID: zof.NoBuffer}, 1, discardReply)

	rep, err := ctl.AuditSwitch(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired != 1 || rep.Missing != 0 {
		t.Errorf("report = %+v, want expired=1 missing=0", rep)
	}
	if len(ctl.IntendedFlows(1)) != 0 {
		t.Error("expired rule still intended")
	}
	if n, _ := ctl.Metrics().Value("controller.audit.expired"); n != 1 {
		t.Error("expired counter not bumped")
	}
}

// TestAuditCountsRejectedRepair: a repair the switch refuses fails the
// pass. The second of two installs overflows a one-entry table; the
// switch refuses it, but it stays recorded intent, so the audit re-adds
// it as missing and the switch refuses again — which must come back as
// the audit's error and a counted failure, not a clean audit.
func TestAuditCountsRejectedRepair(t *testing.T) {
	ctl, _ := txnHarness(t, Config{}, dataplane.Config{DPID: 1, TableSizes: []int{1}})
	sc, _ := ctl.Switch(1)
	for i := 0; i < 2; i++ {
		if err := sc.InstallFlow(fenceRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ctl.AuditSwitch(sc)
	var ae AsyncError
	if !errors.As(err, &ae) || ae.Code != zof.ErrCodeTableFull {
		t.Fatalf("audit = %v, want its repair's table-full rejection", err)
	}
	if rep.Missing != 1 {
		t.Errorf("report = %+v, want missing=1", rep)
	}
	audits, _ := ctl.Metrics().Value("controller.audit.audits")
	failures, _ := ctl.Metrics().Value("controller.audit.failures")
	if audits != 0 || failures != 1 {
		t.Errorf("audits=%d failures=%d, want 0 and 1", audits, failures)
	}
}

// TestAuditSkipsBusySwitch: a transaction holding the switch makes the
// auditor step aside rather than misread mid-commit state.
func TestAuditSkipsBusySwitch(t *testing.T) {
	ctl, _ := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)
	sc.txnMu.Lock()
	_, err := ctl.AuditSwitch(sc)
	sc.txnMu.Unlock()
	if !errors.Is(err, ErrAuditBusy) {
		t.Fatalf("audit under txn lock: %v, want ErrAuditBusy", err)
	}
	if n, _ := ctl.Metrics().Value("controller.audit.skipped"); n != 1 {
		t.Error("skip not counted")
	}
}

// TestAuditVsConcurrentInstalls hammers the auditor against concurrent
// app installs. Record-happens-before-send means a freshly installed
// flow can never look alien: the Alien counter must stay zero, and the
// table must converge to the store. Run with -race.
func TestAuditVsConcurrentInstalls(t *testing.T) {
	ctl, _ := txnHarness(t, Config{AuditInterval: 5 * time.Millisecond},
		dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)

	const installers = 4
	const perInstaller = 50
	var wg sync.WaitGroup
	for g := 0; g < installers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perInstaller; i++ {
				_ = sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd,
					Match: txnMatch(g*perInstaller + i), Priority: 100,
					Cookie: uint64(g<<16 | i), BufferID: zof.NoBuffer,
					Actions: []zof.Action{zof.Output(2)}})
				if i%10 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	waitUntil(t, 5*time.Second, func() bool {
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, time.Second)
		return err == nil && len(rep.Flows) == installers*perInstaller
	})
	if got, _ := ctl.Metrics().Value("controller.audit.alien"); got != 0 {
		t.Errorf("auditor deleted %d legitimate installs as alien", got)
	}
	if len(ctl.IntendedFlows(1)) != installers*perInstaller {
		t.Errorf("store holds %d, want %d", len(ctl.IntendedFlows(1)), installers*perInstaller)
	}
}
