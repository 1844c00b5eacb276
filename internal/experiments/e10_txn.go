package experiments

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E10Result is the machine-readable output (BENCH_e10.json).
type E10Result struct {
	Switches        int     `json:"switches"`
	TxnsCommitted   uint64  `json:"txns_committed"`
	OpsPerSwitch    int     `json:"ops_per_switch"`
	AuditIntervalMS float64 `json:"audit_interval_ms"`

	// Commit latency of successful multi-switch transactions
	// (stage → barrier fence on every participant).
	CommitP50MS  float64 `json:"commit_p50_ms"`
	CommitP95MS  float64 `json:"commit_p95_ms"`
	CommitMeanMS float64 `json:"commit_mean_ms"`

	// An injected per-op rejection (the channel writes a table-full Error for
	// one FlowMod) must abort the transaction, roll every participant
	// back, and leave all flow tables byte-identical to before.
	RejectAborted      bool `json:"reject_aborted"`
	RejectRolledBack   bool `json:"reject_rolled_back"`
	RejectTablesIntact bool `json:"reject_tables_intact"`

	// A participant crashing mid-commit (connection severed on the
	// first transactional op, datapath restarted empty) must abort the
	// transaction with survivors rolled back; the crashed switch
	// converges back to pre-transaction intent via the re-attach's
	// first audit pass.
	CrashAborted         bool    `json:"crash_aborted"`
	CrashSurvivorsIntact bool    `json:"crash_survivors_intact"`
	CrashConverged       bool    `json:"crash_converged"`
	CrashConvergeMS      float64 `json:"crash_converge_ms"`

	// Injected drift (one intended rule deleted behind the controller's
	// back, one alien rule added) must be repaired by the auditor; the
	// convergence budget is two audit intervals.
	DriftRepaired       bool    `json:"drift_repaired"`
	DriftRepairMS       float64 `json:"drift_repair_ms"`
	DriftAuditIntervals float64 `json:"drift_audit_intervals"`

	// With no drift, the auditor must stay quiet: QuiescentRepairs over
	// the QuiescentAudits passes of a window of at least two passes per
	// switch. Audits is every pass of the run.
	QuiescentRepairs uint64 `json:"quiescent_repairs"`
	QuiescentAudits  uint64 `json:"quiescent_audits"`
	Audits           uint64 `json:"audits"`
}

// e10Match builds the unique match for rule index i.
func e10Match(i int) zof.Match {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthDst
	m.EthDst = packet.MACFromUint64(0x0E1000000000 | uint64(i))
	return m
}

const e10Priority = 500

// e10Add is the FlowAdd every phase programs: rule index i under the
// given cookie, forwarding to the sink port.
func e10Add(i int, cookie uint64) *zof.FlowMod {
	return &zof.FlowMod{
		Command:  zof.FlowAdd,
		Match:    e10Match(i),
		Priority: e10Priority,
		Cookie:   cookie,
		BufferID: zof.NoBuffer,
		Actions:  []zof.Action{zof.Output(2)},
	}
}

// Cookie markers (low 48 bits; the session epoch occupies the top 16)
// let the channel's fault policy target exactly the transactional op it
// should reject or crash on, leaving audits and reinstalls untouched.
const (
	e10RejectCookie = 0xE10BAD
	e10CrashCookie  = 0xE10DEAD
)

// e10Canon renders a switch's flow table in canonical (sorted,
// counter-free) form, so two captures compare byte-identical exactly
// when the rules — matches, priorities, cookies, timeouts, actions —
// are identical.
func e10Canon(sc *controller.SwitchConn) (string, error) {
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, 2*time.Second)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(rep.Flows))
	for _, f := range rep.Flows {
		lines = append(lines, fmt.Sprintf("t%d p%d %v c%#x it%d ht%d %v",
			f.TableID, f.Priority, f.Match, f.Cookie, f.IdleTimeout, f.HardTimeout, f.Actions))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}

// e10CanonAll captures the canonical table of every connected switch
// but skip (0: none).
func e10CanonAll(ctl *controller.Controller, skip uint64) (map[uint64]string, error) {
	out := make(map[uint64]string)
	for _, sc := range ctl.Switches() {
		if sc.DPID() == skip {
			continue
		}
		s, err := e10Canon(sc)
		if err != nil {
			return nil, fmt.Errorf("stats from %#x: %w", sc.DPID(), err)
		}
		out[sc.DPID()] = s
	}
	return out, nil
}

// e10WaitTable polls until dpid's canonical table equals want,
// returning the elapsed time and whether it converged.
func e10WaitTable(ctl *controller.Controller, dpid uint64, want string, deadline time.Duration) (time.Duration, bool) {
	start := time.Now()
	ok := poll(deadline, func() bool {
		sc, up := ctl.Switch(dpid)
		if !up {
			return false
		}
		got, err := e10Canon(sc)
		return err == nil && got == want
	})
	return time.Since(start), ok
}

// E10Transactions measures the transactional flow-programming stack:
// multi-switch commit latency, rollback correctness under an injected
// rejection and under a mid-commit participant crash, and the
// anti-entropy auditor's drift-repair convergence (DESIGN.md "State
// ownership and the reconciliation contract").
func E10Transactions(p Params) (*Table, *E10Result, error) {
	const auditEvery = 50 * time.Millisecond
	switches, txns, opsPerSwitch, preRules := 4, 150, 4, 8
	if p.Quick {
		switches, txns, opsPerSwitch, preRules = 3, 10, 2, 4
	}
	res := &E10Result{
		Switches:        switches,
		OpsPerSwitch:    opsPerSwitch,
		AuditIntervalMS: ms(auditEvery),
	}

	ctl, err := controller.New(controller.Config{
		AuditInterval: auditEvery,
		TxnTimeout:    2 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	defer ctl.Close()

	// Switch 1 (the fault victim) attaches over a channel that can
	// reject or sever individual ops; the rest over one that never faults.
	channel, direct := netem.NewChannel(ctl.Serve), netem.NewChannel(ctl.Serve)
	defer channel.Close()
	const victim = uint64(1)
	sess := dataplane.StartSession(twoPortSwitch(dataplane.Config{DPID: victim}), dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){channel.Dial},
		MinBackoff: 10 * time.Millisecond,
		Seed:       1,
	})
	defer func() { sess.Close() }()
	for i := 2; i <= switches; i++ {
		conn, err := direct.Dial()
		if err != nil {
			return nil, nil, err
		}
		dp, err := dataplane.Attach(twoPortSwitch(dataplane.Config{DPID: uint64(i)}), conn)
		if err != nil {
			return nil, nil, err
		}
		defer dp.Close()
	}
	if err := ctl.WaitForSwitches(switches, 5*time.Second); err != nil {
		return nil, nil, err
	}

	// Pre-transaction intended state: preRules rules per switch,
	// installed through one committed transaction.
	pre := ctl.NewTxn()
	for _, sc := range ctl.Switches() {
		for r := 0; r < preRules; r++ {
			pre.Flow(sc.DPID(), e10Add(r, uint64(0xE10000+r)))
		}
	}
	if err := pre.Commit(); err != nil {
		return nil, nil, fmt.Errorf("pre-rule install: %w", err)
	}

	// Phase A — commit latency. Each transaction rewrites the same
	// opsPerSwitch rules on every switch under a fresh cookie (FlowAdd
	// replaces in place, so the tables do not grow).
	for t := 0; t < txns; t++ {
		txn := ctl.NewTxn()
		for _, sc := range ctl.Switches() {
			for j := 0; j < opsPerSwitch; j++ {
				txn.Flow(sc.DPID(), e10Add(1000+j, uint64(0xE11000+t)))
			}
		}
		if err := txn.Commit(); err != nil {
			return nil, nil, fmt.Errorf("latency txn %d: %w", t, err)
		}
	}
	lat := ctl.Metrics().Histogram("controller.txn.latency")
	res.TxnsCommitted = metric(ctl, "controller.txn.commits")
	res.CommitP50MS = ms(lat.Quantile(0.50))
	res.CommitP95MS = ms(lat.Quantile(0.95))
	res.CommitMeanMS = ms(lat.Mean())

	// Phase B — injected rejection. The channel answers one marked
	// FlowMod with a table-full Error; the commit must abort, roll every
	// participant back, and leave all tables byte-identical.
	before, err := e10CanonAll(ctl, 0)
	if err != nil {
		return nil, nil, err
	}
	var rejected atomic.Bool
	channel.SetFlowModPolicy(func(fm *zof.FlowMod) (netem.FlowModDecision, uint16) {
		if fm.Command == zof.FlowAdd && fm.Cookie&(1<<48-1) == e10RejectCookie &&
			rejected.CompareAndSwap(false, true) {
			return netem.FlowModReject, zof.ErrCodeTableFull
		}
		return netem.FlowModPass, 0
	})
	rtxn := ctl.NewTxn()
	for _, sc := range ctl.Switches() {
		rtxn.Flow(sc.DPID(), e10Add(2000+int(sc.DPID()), e10RejectCookie))
	}
	rerr := rtxn.Commit()
	channel.SetFlowModPolicy(nil)
	var terr *controller.TxnError
	if errors.As(rerr, &terr) {
		res.RejectAborted = len(terr.Rejections) > 0
		res.RejectRolledBack = terr.RolledBack
	}
	after, err := e10CanonAll(ctl, 0)
	if err != nil {
		return nil, nil, err
	}
	res.RejectTablesIntact = maps.Equal(before, after)

	// Phase C — mid-commit crash. The channel severs the victim's
	// session on the first marked op, before anything written behind it
	// reaches the switch; the victim's datapath restarts empty. The
	// commit must abort with survivors rolled back; the victim's
	// pre-transaction intent survives in the store and is restored by
	// the re-attach's first audit pass.
	channel.SetFlowModPolicy(func(fm *zof.FlowMod) (netem.FlowModDecision, uint16) {
		if fm.Command == zof.FlowAdd && fm.Cookie&(1<<48-1) == e10CrashCookie {
			channel.DropConnections()
			return netem.FlowModDrop, 0
		}
		return netem.FlowModPass, 0
	})
	ctxn := ctl.NewTxn()
	for _, sc := range ctl.Switches() {
		ctxn.Flow(sc.DPID(), e10Add(3000+int(sc.DPID()), e10CrashCookie))
	}
	cerr := ctxn.Commit()
	res.CrashAborted = cerr != nil && errors.As(cerr, &terr)
	sess.Close() // the datapath is abandoned
	channel.SetFlowModPolicy(nil)
	survivors, err := e10CanonAll(ctl, victim)
	if err != nil {
		return nil, nil, err
	}
	res.CrashSurvivorsIntact = true
	for dpid, s := range survivors {
		if s != before[dpid] {
			res.CrashSurvivorsIntact = false
		}
	}
	// Restart the victim empty and measure convergence back to the
	// pre-transaction table, byte for byte (the first audit pass re-adds
	// the recorded rules verbatim, cookies included).
	vsw := twoPortSwitch(dataplane.Config{DPID: victim})
	sess = dataplane.StartSession(vsw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){channel.Dial},
		MinBackoff: 10 * time.Millisecond,
		Seed:       2,
	})
	conv, ok := e10WaitTable(ctl, victim, before[victim], 10*time.Second)
	res.CrashConvergeMS = ms(conv)
	res.CrashConverged = ok
	if !ok {
		return nil, nil, fmt.Errorf("crashed switch did not converge to pre-transaction state")
	}

	// Phase D — drift repair. Mutate the victim's table behind the
	// controller's back: delete one intended rule, add one alien rule.
	// The auditor must converge the table back within (a budget of) two
	// audit intervals.
	vsc, ok := ctl.Switch(victim)
	if !ok {
		return nil, nil, fmt.Errorf("victim not connected after restart")
	}
	drift := []*zof.FlowMod{{
		Command:  zof.FlowDeleteStrict,
		Match:    e10Match(0),
		Priority: e10Priority,
		BufferID: zof.NoBuffer,
	}, {
		Command:  zof.FlowAdd,
		Match:    e10Match(5000),
		Priority: e10Priority,
		Cookie:   0xA11E4,
		BufferID: zof.NoBuffer,
	}}
	for _, fm := range drift {
		if err := installFlow(vsw, fm); err != nil {
			return nil, nil, fmt.Errorf("drift injection: %w", err)
		}
	}
	if got, err := e10Canon(vsc); err != nil || got == before[victim] {
		return nil, nil, fmt.Errorf("drift injection not visible (err=%v)", err)
	}
	rep, ok := e10WaitTable(ctl, victim, before[victim], 10*time.Second)
	res.DriftRepairMS = ms(rep)
	res.DriftRepaired = ok
	res.DriftAuditIntervals = float64(rep) / float64(auditEvery)
	if !ok {
		return nil, nil, fmt.Errorf("injected drift was not repaired")
	}

	// Phase E — quiescence: with tables converged, at least two further
	// passes per switch must repair nothing.
	base := auditRepairs(ctl)
	res.QuiescentAudits = waitAudits(ctl, uint64(2*switches), 10*time.Second)
	res.QuiescentRepairs = auditRepairs(ctl) - base
	res.Audits = metric(ctl, "controller.audit.audits")
	if res.QuiescentAudits < uint64(2*switches) {
		return nil, nil, fmt.Errorf("quiescence window saw %d audit passes, want %d", res.QuiescentAudits, 2*switches)
	}

	tbl := newTable("e10", "metric", "value")
	tbl.Notes = []string{
		fmt.Sprintf("%d switches (1 on a faultable channel), %d ops/switch per txn, %d pre-rules, audit every %v",
			switches, opsPerSwitch, preRules, auditEvery),
		"rollback intact = flow tables byte-identical (canonical FlowStats) to pre-transaction state",
		"crash converge = mid-commit session death + empty restart → intent restored by the re-attach's first audit pass",
	}
	tbl.AddRow("commit p50 / p95 / mean", fmt.Sprintf("%.2f / %.2f / %.2f ms", res.CommitP50MS, res.CommitP95MS, res.CommitMeanMS))
	tbl.AddRow("commits", fmt.Sprintf("%d (%d switches x %d ops)", res.TxnsCommitted, switches, opsPerSwitch))
	tbl.AddRow("reject: aborted/rolled-back/intact", fmt.Sprintf("%v / %v / %v", res.RejectAborted, res.RejectRolledBack, res.RejectTablesIntact))
	tbl.AddRow("crash: aborted/survivors intact", fmt.Sprintf("%v / %v", res.CrashAborted, res.CrashSurvivorsIntact))
	tbl.AddRow("crash converge", fmt.Sprintf("%.1f ms", res.CrashConvergeMS))
	tbl.AddRow("drift repair", fmt.Sprintf("%.1f ms (%.2f audit intervals)", res.DriftRepairMS, res.DriftAuditIntervals))
	tbl.AddRow("quiescent repairs", fmt.Sprintf("%d (over %d audits)", res.QuiescentRepairs, res.QuiescentAudits))
	return tbl, res, nil
}
