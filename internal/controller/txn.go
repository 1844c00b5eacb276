// Transactional flow programming: a Txn stages FlowMods and GroupMods
// across one or more switches and commits them as one fenced batch per
// switch. The zof stream is ordered and error replies reuse the
// offending message's XID, so by the time a BarrierReply arrives every
// Error for the ops ahead of it has been delivered — the barrier IS the
// error-collection window, and the fence hands both over together. Any
// rejection, transport failure, or fence timeout aborts the commit and
// triggers an automatic rollback, fenced the same way: the store's diff
// between its intent at abort time and that intent with the ops applied.
// The store itself only records the ops after every fence came back
// clean, so a failed transaction leaves the intended state — and, after
// rollback (or reconnect plus anti-entropy repair for a dead switch),
// the physical state — exactly as it was.
package controller

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/zof"
)

// AsyncError is an asynchronous zof.Error reply attributed to its
// switch and offending message.
type AsyncError struct {
	DPID   uint64
	XID    uint32
	Code   uint16
	Detail string
}

// Error renders the rejection.
func (e AsyncError) Error() string {
	return fmt.Sprintf("switch %#x rejected xid %d: %s (%s)",
		e.DPID, e.XID, zof.ErrCodeName(e.Code), e.Detail)
}

// TxnStats are the transaction engine's health counters.
type TxnStats struct {
	// Commits counts transactions that fenced successfully.
	Commits obs.Counter
	// Aborts counts transactions that failed (rejection, transport
	// error, or fence timeout) and attempted rollback.
	Aborts obs.Counter
	// Rollbacks counts aborts whose undo batches were fence-verified.
	Rollbacks obs.Counter
	// RollbackFailures counts aborts whose rollback could not be fully
	// verified on a still-connected switch; the anti-entropy auditor is
	// the backstop.
	RollbackFailures obs.Counter
	// Latency distributes successful commit times (stamp → fence).
	Latency *obs.Histogram
}

// TxnError reports a failed commit.
type TxnError struct {
	// Rejections are the per-op switch errors collected in the fence
	// window.
	Rejections []AsyncError
	// Err is the transport or fence failure, if any.
	Err error
	// RolledBack is true when every still-connected participant's
	// undo batch was applied and fence-verified. Participants whose
	// connection died are skipped: their store was never updated, so
	// reconnect-time reinstall plus the auditor restore pre-transaction
	// intent.
	RolledBack bool
	// RollbackErr carries rollback verification failures.
	RollbackErr error
}

// Error summarizes the failure.
func (e *TxnError) Error() string {
	msg := "txn aborted"
	if len(e.Rejections) > 0 {
		msg += fmt.Sprintf(": %d op(s) rejected (first: %v)", len(e.Rejections), e.Rejections[0])
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	if e.RolledBack {
		msg += " (rolled back)"
	} else if e.RollbackErr != nil {
		msg += " (rollback incomplete: " + e.RollbackErr.Error() + ")"
	}
	return msg
}

// Unwrap exposes the transport error for errors.Is/As.
func (e *TxnError) Unwrap() error { return e.Err }

var errTxnDone = errors.New("controller: transaction already committed")

// Txn stages flow and group mods across switches for an atomic commit.
// Stage with Flow/Group/Add, then call Commit exactly once. A Txn is
// not safe for concurrent staging.
type Txn struct {
	c    *Controller
	ops  map[uint64][]zof.Message
	done bool
}

// NewTxn opens a transaction.
func (c *Controller) NewTxn() *Txn {
	return &Txn{c: c, ops: make(map[uint64][]zof.Message)}
}

// Flow stages a FlowMod for dpid. FlowAdd cookies are epoch-stamped at
// commit time.
func (t *Txn) Flow(dpid uint64, fm *zof.FlowMod) *Txn { return t.Add(dpid, fm) }

// Group stages a GroupMod for dpid.
func (t *Txn) Group(dpid uint64, gm *zof.GroupMod) *Txn { return t.Add(dpid, gm) }

// Add stages raw messages for dpid in order.
func (t *Txn) Add(dpid uint64, msgs ...zof.Message) *Txn {
	t.ops[dpid] = append(t.ops[dpid], msgs...)
	return t
}

// Pending returns the number of staged operations.
func (t *Txn) Pending() int {
	n := 0
	for _, ops := range t.ops {
		n += len(ops)
	}
	return n
}

// Commit stamps every op, fences one batch per switch — all out at
// once, their outcomes awaited under one Config.TxnTimeout — and either
// records the ops in the intended state or rolls the switches back. It
// returns nil on success and a *TxnError on failure. Nothing is ever
// re-sent — FlowAdd is idempotent but GroupAdd is not — so a lost op
// surfaces as a fence failure and the auditor repairs any residue.
func (t *Txn) Commit() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil
	}
	start := time.Now()
	stats := &t.c.txnStats

	// Resolve participants up front, in ascending DPID order: an unknown
	// switch aborts before anything is sent anywhere.
	dpids := make([]uint64, 0, len(t.ops))
	for dpid := range t.ops {
		dpids = append(dpids, dpid)
	}
	slices.Sort(dpids)
	conns := make([]*SwitchConn, len(dpids))
	ops := make([][]zof.Message, len(dpids))
	for i, dpid := range dpids {
		sc, ok := t.c.Switch(dpid)
		if !ok {
			stats.Aborts.Inc()
			stats.Rollbacks.Inc() // vacuous: nothing was sent
			return &TxnError{Err: fmt.Errorf("switch %#x not connected", dpid), RolledBack: true}
		}
		conns[i], ops[i] = sc, t.ops[dpid]
	}

	// Serialize against other transactions and the auditor, acquiring
	// in ascending DPID order so concurrent multi-switch commits cannot
	// deadlock.
	for _, sc := range conns {
		sc.txnMu.Lock()
	}
	defer func() {
		for i := len(conns) - 1; i >= 0; i-- {
			conns[i].txnMu.Unlock()
		}
	}()

	// Stamp FlowAdds with each session's epoch.
	for i, sc := range conns {
		for _, op := range ops[i] {
			if fm, ok := op.(*zof.FlowMod); ok {
				sc.stamp(fm)
			}
		}
	}

	var rejections []AsyncError
	var fenceErr error
	for i, r := range fenceAll(conns, ops, t.c.cfg.TxnTimeout) {
		rejections = append(rejections, r.rejected...)
		if r.err != nil {
			fenceErr = errors.Join(fenceErr, fmt.Errorf("fence on %#x: %w", conns[i].dpid, r.err))
		}
	}
	if fenceErr == nil && len(rejections) == 0 {
		for i, sc := range conns {
			sc.store.Record(ops[i]...)
		}
		stats.Commits.Inc()
		stats.Latency.Observe(time.Since(start))
		return nil
	}

	// Abort: undo what may have landed. The store was never touched.
	stats.Aborts.Inc()
	rbErr := t.rollback(conns, ops)
	if rbErr == nil {
		stats.Rollbacks.Inc()
	} else {
		stats.RollbackFailures.Inc()
	}
	return &TxnError{
		Rejections:  rejections,
		Err:         fenceErr,
		RolledBack:  rbErr == nil,
		RollbackErr: rbErr,
	}
}

// rollback fences every participant's undo of its ops, all at once
// under a second TxnTimeout, and returns what it could not verify. A
// switch whose session died — before or during the rollback — is not a
// failure: its state is gone or unreachable, and because the store
// still holds pre-transaction intent, session reinstall and the
// anti-entropy auditor converge it back.
func (t *Txn) rollback(conns []*SwitchConn, ops [][]zof.Message) error {
	undo := make([][]zof.Message, len(conns))
	for i, sc := range conns {
		undo[i] = sc.store.undo(ops[i])
	}
	var failed error
	for i, r := range fenceAll(conns, undo, t.c.cfg.TxnTimeout) {
		select {
		case <-conns[i].Done():
			continue
		default:
		}
		if r.err != nil {
			failed = errors.Join(failed, fmt.Errorf("rollback on %#x: %w", conns[i].dpid, r.err))
		}
		for _, rej := range r.rejected {
			failed = errors.Join(failed, fmt.Errorf("rollback op rejected: %w", rej))
		}
	}
	return failed
}
