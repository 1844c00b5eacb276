// Transactional flow programming: a Txn stages FlowMods and GroupMods
// across one or more switches and commits them behind a barrier fence.
// The zof stream is ordered and error replies reuse the offending
// message's XID, so by the time a BarrierReply arrives every Error for
// the ops ahead of it has been delivered — the barrier IS the
// error-collection window. Any rejection, transport failure, or
// barrier timeout aborts the commit and triggers an automatic
// rollback: inverse operations, computed against the intended-state
// store at staging time, are sent in reverse order and verified by a
// second barrier. The store itself only commits after a successful
// fence, so a failed transaction leaves the intended state — and,
// after rollback (or reconnect plus anti-entropy repair for a dead
// switch), the physical state — exactly as it was.
package controller

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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
	// error, or barrier timeout) and attempted rollback.
	Aborts obs.Counter
	// Rollbacks counts aborts whose inverse ops were barrier-verified.
	Rollbacks obs.Counter
	// RollbackFailures counts aborts whose rollback could not be fully
	// verified on a still-connected switch; the anti-entropy auditor is
	// the backstop.
	RollbackFailures obs.Counter
	// Latency distributes successful commit times (stage → fence).
	Latency *obs.Histogram
}

// TxnError reports a failed commit.
type TxnError struct {
	// Rejections are the per-op switch errors collected in the fence
	// window.
	Rejections []AsyncError
	// Err is the transport or barrier failure, if any.
	Err error
	// RolledBack is true when every still-connected participant's
	// inverse ops were applied and barrier-verified. Participants whose
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

// participant is one switch's slice of a committing transaction.
type participant struct {
	sc      *SwitchConn
	ops     []zof.Message
	inverse [][]zof.Message // per-op undo blocks, staging order
	xids    []uint32
	watch   *errCollector
	sent    bool
	fenceOK bool
	err     error
}

// Commit stamps, stages and sends every op, fences the result with
// concurrent barriers (each attempt bounded by Config.TxnTimeout and
// retried txnRetries times), and either commits the intended state or
// rolls the switches back. It returns nil on success and a
// *TxnError on failure. The ops themselves are never re-sent on retry
// — FlowAdd is idempotent but GroupAdd is not — so a lost op surfaces
// as a fence failure and the auditor repairs any residue.
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

	// Resolve participants up front: an unknown switch aborts before
	// anything is sent anywhere.
	dpids := make([]uint64, 0, len(t.ops))
	for dpid := range t.ops {
		dpids = append(dpids, dpid)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	parts := make([]*participant, 0, len(dpids))
	for _, dpid := range dpids {
		sc, ok := t.c.Switch(dpid)
		if !ok {
			stats.Aborts.Inc()
			stats.Rollbacks.Inc() // vacuous: nothing was sent
			return &TxnError{Err: fmt.Errorf("switch %#x not connected", dpid), RolledBack: true}
		}
		parts = append(parts, &participant{sc: sc, ops: t.ops[dpid]})
	}

	// Serialize against other transactions and the auditor, acquiring
	// in ascending DPID order so concurrent multi-switch commits cannot
	// deadlock.
	for _, p := range parts {
		p.sc.txnMu.Lock()
	}
	defer func() {
		for i := len(parts) - 1; i >= 0; i-- {
			parts[i].sc.txnMu.Unlock()
		}
	}()

	// Stage: stamp FlowAdds with each session's epoch, then compute the
	// inverse ops against the current intended state.
	for _, p := range parts {
		for _, op := range p.ops {
			if fm, ok := op.(*zof.FlowMod); ok {
				p.sc.stamp(fm)
			}
		}
		p.inverse = p.sc.store.stage(p.ops)
	}

	// Send phase: one tracked batch per switch, error watchers armed
	// before the frames can reach the peer.
	var sendErr error
	for _, p := range parts {
		p.watch = &errCollector{}
		p.xids, p.err = p.sc.sendWatched(p.watch, p.ops...)
		p.sent = true
		if p.err != nil {
			sendErr = fmt.Errorf("send to %#x: %w", p.sc.dpid, p.err)
			break
		}
	}

	// Fence phase: concurrent barriers over every switch we sent to.
	var fenceErr error
	if sendErr == nil {
		var wg sync.WaitGroup
		for _, p := range parts {
			wg.Add(1)
			go func(p *participant) {
				defer wg.Done()
				if err := t.barrierRetry(p.sc); err != nil {
					p.err = fmt.Errorf("fence on %#x: %w", p.sc.dpid, err)
					return
				}
				p.fenceOK = true
			}(p)
		}
		wg.Wait()
		for _, p := range parts {
			if !p.fenceOK {
				fenceErr = errors.Join(fenceErr, p.err)
			}
		}
	}

	// Collect the fence window's rejections and release the watchers.
	var rejections []AsyncError
	for _, p := range parts {
		if p.watch != nil {
			rejections = append(rejections, p.watch.take()...)
			p.sc.unwatchXIDs(p.xids)
		}
	}

	if sendErr == nil && fenceErr == nil && len(rejections) == 0 {
		for _, p := range parts {
			p.sc.store.commit(p.ops)
		}
		stats.Commits.Inc()
		stats.Latency.Observe(time.Since(start))
		return nil
	}

	// Abort: undo what may have landed. The store was never touched.
	stats.Aborts.Inc()
	rbErr := t.rollback(parts)
	if rbErr == nil {
		stats.Rollbacks.Inc()
	} else {
		stats.RollbackFailures.Inc()
	}
	return &TxnError{
		Rejections:  rejections,
		Err:         errors.Join(sendErr, fenceErr),
		RolledBack:  rbErr == nil,
		RollbackErr: rbErr,
	}
}

// barrierRetry fences sc, retrying transient timeouts. A dead
// connection stops retrying immediately.
func (t *Txn) barrierRetry(sc *SwitchConn) error {
	var err error
	for i := 0; i <= txnRetries; i++ {
		if err = sc.Barrier(t.c.cfg.TxnTimeout); err == nil {
			return nil
		}
		select {
		case <-sc.Done():
			return err
		default:
		}
	}
	return err
}

// rollback sends every sent participant's inverse blocks in reverse
// staging order and verifies each with a barrier. Dead connections are
// skipped: their switch's state is gone or unreachable, and because
// the store still holds pre-transaction intent, session reinstall and
// the anti-entropy auditor converge it back. Returns nil when every
// live participant verified.
func (t *Txn) rollback(parts []*participant) error {
	var failed error
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		if !p.sent {
			continue
		}
		var inv []zof.Message
		for j := len(p.inverse) - 1; j >= 0; j-- {
			inv = append(inv, p.inverse[j]...)
		}
		if len(inv) == 0 {
			continue
		}
		select {
		case <-p.sc.Done():
			continue // dead: reconnect + auditor restore intent
		default:
		}
		w := &errCollector{}
		xids, err := p.sc.sendWatched(w, inv...)
		if err == nil {
			err = t.barrierRetry(p.sc)
		}
		rej := w.take()
		p.sc.unwatchXIDs(xids)
		if err != nil {
			select {
			case <-p.sc.Done():
				continue // died mid-rollback: same recovery path
			default:
			}
			failed = errors.Join(failed, fmt.Errorf("rollback on %#x: %w", p.sc.dpid, err))
		}
		for _, r := range rej {
			failed = errors.Join(failed, fmt.Errorf("rollback op rejected: %w", r))
		}
	}
	return failed
}
