package controller

import (
	"errors"
	"math/rand"
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

// auditEpoch is the session epoch the diff checker audits under; its
// rules carry it or the epoch before.
const auditEpoch = 2

// auditFlow derives a rule from b: epoch 1 or auditEpoch, one of two
// app cookies under one of four owners (bits 4–5), an output to one of
// two ports, and an idle timeout when bit 3 is set.
func auditFlow(b byte) IntendedFlow {
	f := IntendedFlow{Cookie: sessionCookie(1+uint64(b&1), OwnerCookie(b>>4&3, 1+uint64(b>>1&1))),
		Actions: []zof.Action{zof.Output(1 + uint32(b>>2&1))}}
	if b&8 != 0 {
		f.IdleTimeout = 30
	}
	return f
}

// auditCoverage says what a set of diffs exercised.
type auditCoverage struct {
	diffs, firsts, kept, stale, staleRetired, alien, missing, mismatched, expired int
}

// checkAuditDiff builds an intended state and a switch table from data
// and requires that auditDiff's repairs, applied to the table through
// the store's own mod semantics (the switch's model), and its
// retirements, applied to the intent, leave the two equal. data[0]'s
// low bit makes it a session's first pass. Two bytes then place one
// rule: the top two bits of the first put it in the intent only, on
// the switch only, on both, or on both with the switch's derived from
// the second byte's high nibble; the rest names one of the 20 keys.
// Along the way: an entry equal on both sides draws no repair (unless
// a first pass finds it under another epoch), every repair and every
// retirement changes the state it meets, and after a first pass no
// entry the switch held under another epoch is left.
func checkAuditDiff(t testing.TB, data []byte, cov *auditCoverage) {
	t.Helper()
	if len(data) < 1 {
		return
	}
	first := data[0]&1 != 0
	intended, held := newStoreState(), newStoreState()
	for rec := data[1:]; len(rec) >= 2; rec = rec[2:] {
		k, f := undoKey(rec[0]&63%20), auditFlow(rec[1])
		switch rec[0] >> 6 {
		case 0:
			intended.flows[k] = f
		case 1:
			held.flows[k] = f
		case 2:
			intended.flows[k], held.flows[k] = f, f
		case 3:
			intended.flows[k], held.flows[k] = f, auditFlow(rec[1]>>4)
		}
	}
	var actual []zof.FlowStats
	for k, f := range held.flows {
		actual = append(actual, zof.FlowStats{TableID: k.TableID, Priority: k.Priority, Match: k.Match,
			Cookie: f.Cookie, IdleTimeout: f.IdleTimeout, HardTimeout: f.HardTimeout, Actions: f.Actions})
	}

	rep, repairs, retire := auditDiff(intended.clone().flows, actual, auditEpoch, first)
	named := make(map[FlowKey]bool)
	sw := held.clone()
	for i, m := range repairs {
		fm := m.(*zof.FlowMod)
		named[FlowKey{fm.TableID, fm.Match, fm.Priority}] = true
		was := sw.clone()
		sw.applyFlowMod(fm)
		if stateDiff(&sw, &was) == "" {
			t.Fatalf("repair[%d] %+v changes nothing", i, fm)
		}
	}
	want := intended.clone()
	for k, cookie := range retire {
		was := want.clone()
		want.applyFlowMod(k.deleteCookie(cookie))
		if stateDiff(&want, &was) == "" {
			t.Fatalf("retirement of %v under %#x changes nothing", k, cookie)
		}
	}
	if diff := stateDiff(&sw, &want); diff != "" {
		t.Fatalf("after the pass the switch holds %s\nrepairs: %d, retired: %d", diff, len(repairs), len(retire))
	}
	for k, f := range held.flows {
		foreign := CookieEpoch(f.Cookie) != auditEpoch
		if g, ok := intended.flows[k]; ok && g.equal(f) && !(first && foreign) {
			cov.kept++
			if named[k] {
				t.Fatalf("entry %v equal on both sides drew a repair", k)
			}
		}
		if first && foreign {
			if now, ok := sw.flows[k]; ok && now.Cookie == f.Cookie {
				t.Fatalf("first pass left %v under foreign cookie %#x", k, f.Cookie)
			}
			if _, ok := retire[k]; ok {
				cov.staleRetired++
			}
		}
	}
	if rep.Stale > 0 && !first {
		t.Fatalf("a periodic pass flushed %d stale entries", rep.Stale)
	}
	if n := rep.Repairs(); n != len(repairs) {
		t.Fatalf("report counts %d repairs, diff sent %d", n, len(repairs))
	}
	cov.diffs++
	if first {
		cov.firsts++
	}
	cov.stale += rep.Stale
	cov.alien += rep.Alien
	cov.missing += rep.Missing
	cov.mismatched += rep.Mismatched
	cov.expired += rep.Expired
}

// TestAuditDiffRepairsToIntent drives the checker with seeded tables of
// up to 16 placed rules, half of them first passes.
func TestAuditDiffRepairsToIntent(t *testing.T) {
	var cov auditCoverage
	for seed := 0; seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 1+2*(1+rng.Intn(16)))
		rng.Read(data)
		checkAuditDiff(t, data, &cov)
	}
	t.Logf("%+v", cov)
	if cov.diffs != 2000 || cov.firsts < 900 || cov.kept < 1000 || cov.stale < 1000 || cov.staleRetired < 1000 ||
		cov.alien < 1000 || cov.missing < 1000 || cov.mismatched < 1000 || cov.expired < 1000 {
		t.Fatalf("tables too sparse to test the diff: %+v", cov)
	}
}

// FuzzAuditDiff drives the same checker from bytes. The corpus under
// testdata/fuzz holds a first pass that retires an old-epoch rule held
// on both sides, one that replaces a stale entry with the intent at its
// key, and a periodic pass that meets an alien, an expired and a
// mismatched rule.
func FuzzAuditDiff(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkAuditDiff(t, data, new(auditCoverage)) })
}
