package controller

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// cookieEpochShift places the session epoch in the upper 16 bits of
// every controller-installed flow cookie; the low 48 bits remain the
// app's. Reconciliation after a reconnect keys on these bits: entries
// stamped with an earlier epoch are stale leftovers of a previous
// session and are flushed once the apps have reinstalled.
const cookieEpochShift = 48

// sessionCookie embeds epoch into the upper bits of an app cookie.
func sessionCookie(epoch, cookie uint64) uint64 {
	return epoch<<cookieEpochShift | cookie&(1<<cookieEpochShift-1)
}

// CookieEpoch extracts the session epoch a flow cookie was stamped
// with (0 for flows not installed through a SwitchConn).
func CookieEpoch(cookie uint64) uint64 { return cookie >> cookieEpochShift }

// SwitchConn is the controller's handle on one connected datapath. All
// methods are safe for concurrent use.
type SwitchConn struct {
	dpid     uint64
	epoch    uint64 // session epoch (16 bits, never 0); set at registration
	conn     *zof.Conn
	features zof.FeaturesReply
	done     chan struct{} // closed when the connection is torn down

	// store records the intended state of this datapath; set at
	// registration and shared across the DPID's sessions (intent
	// survives a switch crash). Every mod sent through this connection
	// is recorded before it is written to the wire.
	store *FlowStore

	// txnMu serializes transactional commits and anti-entropy audits
	// touching this switch: a commit's inverse-op computation and its
	// sends must not interleave with another commit's, and the auditor
	// must not mistake a mid-commit flow for drift. Multi-switch
	// transactions acquire participants in ascending DPID order.
	txnMu sync.Mutex

	// reconciling is set from a re-attach's or an activation's SwitchUp
	// until the stale-epoch flush behind it completes; the auditor skips
	// the switch while it holds (see registerSwitch).
	reconciling atomic.Bool

	// active reports whether SwitchUp has been posted for this
	// connection — immediately at registration in single-instance
	// mode, at ActivateSwitch under deferred mastership. Inactive
	// connections feed no app events and are not audited.
	active atomic.Bool
	// reconnect records whether the DPID was known at registration
	// (set under the controller's mu, read by ActivateSwitch).
	reconnect bool

	mu sync.Mutex
	// pending routes the reply carrying an XID to whoever awaits it — a
	// blocked request or a fence, one mechanism for both — and, for a
	// fence, the Errors its batch draws ahead of the barrier.
	pending map[uint32]waiter
	closed  bool
}

// waiter awaits the reply to one XID: a blocked request's reply
// channel, or a fence's callback, which also owns its batch's op XIDs
// (ops) and collects their Errors (rejected) until the reply.
type waiter struct {
	reply    chan<- zof.Message
	done     func(rejected []AsyncError, err error)
	ops      []uint32
	rejected []AsyncError
}

// answer hands w its reply, once, off the map: on the connection's
// reader, or with nil from close when the session ends first. It never
// blocks: a reply channel has room for the one send, and a fence's
// callback must not block.
func (w waiter) answer(rep zof.Message) {
	if w.done == nil {
		w.reply <- rep
		return
	}
	switch m := rep.(type) {
	case nil:
		w.done(w.rejected, zof.ErrConnClosed)
	case *zof.BarrierReply:
		w.done(w.rejected, nil)
	case *zof.Error:
		w.done(w.rejected, m)
	default:
		w.done(w.rejected, zof.ErrTypeMismatch)
	}
}

// DPID returns the datapath id.
func (s *SwitchConn) DPID() uint64 { return s.dpid }

// Epoch returns the session epoch stamped into this connection's flow
// cookies. Each registration of a DPID gets a fresh epoch, so flows
// surviving from an earlier session are distinguishable on the wire.
func (s *SwitchConn) Epoch() uint64 { return s.epoch }

// Done is closed when the connection is torn down (read error, liveness
// eviction, displacement by a newer session, or controller close).
func (s *SwitchConn) Done() <-chan struct{} { return s.done }

// Active reports whether this connection has been activated — whether
// apps have been told the switch is up (see Config.Mastership).
func (s *SwitchConn) Active() bool { return s.active.Load() }

// Features returns the handshake-time feature reply.
func (s *SwitchConn) Features() zof.FeaturesReply { return s.features }

// RemoteAddr names the transport peer.
func (s *SwitchConn) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// handshake runs the controller side: Hello exchange then features.
func handshake(conn *zof.Conn, timeout time.Duration) (*SwitchConn, error) {
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	if err := conn.Handshake(); err != nil {
		return nil, err
	}
	xid, err := conn.Send(&zof.FeaturesRequest{})
	if err != nil {
		return nil, err
	}
	for {
		msg, h, err := conn.Receive()
		if err != nil {
			return nil, err
		}
		fr, ok := msg.(*zof.FeaturesReply)
		if !ok {
			// Tolerate early asynchronous noise (packet-in, port status)
			// but nothing else before features.
			switch msg.(type) {
			case *zof.PacketIn, *zof.PortStatus:
				continue
			}
			return nil, fmt.Errorf("expected features reply, got %v", msg.Type())
		}
		if h.XID != xid {
			continue
		}
		return &SwitchConn{
			dpid:     fr.DPID,
			conn:     conn,
			features: *fr,
			done:     make(chan struct{}),
			pending:  make(map[uint32]waiter),
		}, nil
	}
}

// Send fires a message without awaiting any reply. The write is
// coalesced, not flushed per message. Like every exported send verb it
// states intent first: a FlowAdd is stamped with the session epoch (see
// stamp) and every mod is recorded in the intended-state store before
// the write.
func (s *SwitchConn) Send(msg zof.Message) error {
	s.intend(msg)
	_, err := s.conn.Send(msg)
	return err
}

// SendBatch fires a burst of messages — flow-mods, packet-outs, group
// mods — framed back to back and flushed once, so the burst costs one
// syscall instead of one per message. Apps that emit several messages
// per event (routing installs, LB rule pairs, discovery probes) should
// prefer it over message-at-a-time sends. The burst is stamped and
// recorded like a Send.
func (s *SwitchConn) SendBatch(msgs ...zof.Message) error {
	s.intend(msgs...)
	return s.conn.SendBatch(msgs...)
}

// intend stamps the FlowAdds among msgs and records every mod.
func (s *SwitchConn) intend(msgs ...zof.Message) {
	for _, m := range msgs {
		if fm, ok := m.(*zof.FlowMod); ok {
			s.stamp(fm)
		}
	}
	s.record(msgs...)
}

// record mirrors outgoing mods into the intended-state store. The
// record happens before the wire write: a flow observed in a FlowStats
// reply is therefore always already in the store, which is what lets
// the auditor treat store-absent flows as drift rather than in-flight
// installs.
func (s *SwitchConn) record(msgs ...zof.Message) {
	if s.store != nil {
		s.store.Record(msgs...)
	}
}

// stamp embeds the session epoch into a FlowAdd's cookie. App cookies
// live in the low 48 bits; the upper 16 identify the installing
// session so reconciliation can flush leftovers of a dead one.
func (s *SwitchConn) stamp(fm *zof.FlowMod) {
	if fm.Command == zof.FlowAdd {
		fm.Cookie = sessionCookie(s.epoch, fm.Cookie)
	}
}

// InstallFlow sends a FlowMod; every flow this connection installs is
// attributable to this session by its cookie's upper 16 bits.
func (s *SwitchConn) InstallFlow(fm *zof.FlowMod) error { return s.Send(fm) }

// PacketOut injects a packet.
func (s *SwitchConn) PacketOut(po *zof.PacketOut) error { return s.Send(po) }

// expect routes the reply to xid into w (see pending); false, with
// nothing registered, means the session has closed.
func (s *SwitchConn) expect(xid uint32, w waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.pending[xid] = w
	}
	return !s.closed
}

// take removes xid's waiter and returns it; false means someone else —
// the reader, close, a waiter giving up — already has.
func (s *SwitchConn) take(xid uint32) (waiter, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.pending[xid]
	delete(s.pending, xid)
	return w, ok
}

// reject files an Error with the in-flight fence whose batch holds its
// XID; false means no fence owns it. The scan runs on the Error path
// only — replies are map hits.
func (s *SwitchConn) reject(xid uint32, e *zof.Error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for fence, w := range s.pending {
		if slices.Contains(w.ops, xid) {
			w.rejected = append(w.rejected, AsyncError{DPID: s.dpid, XID: xid, Code: e.Code, Detail: e.Detail})
			s.pending[fence] = w
			return true
		}
	}
	return false
}

// request sends msg and blocks for the reply carrying the same xid.
func (s *SwitchConn) request(msg zof.Message, timeout time.Duration) (zof.Message, error) {
	ch := make(chan zof.Message, 1) // the one answer never blocks
	xid := s.conn.NextXID()
	if !s.expect(xid, waiter{reply: ch}) {
		return nil, zof.ErrConnClosed
	}
	defer s.take(xid)
	if err := s.conn.SendXID(msg, xid); err != nil {
		return nil, err
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case rep := <-ch:
		if rep == nil {
			return nil, zof.ErrConnClosed
		}
		if e, isErr := rep.(*zof.Error); isErr {
			return nil, e
		}
		return rep, nil
	case <-timer:
		return nil, fmt.Errorf("request %v to %#x timed out", msg.Type(), s.dpid)
	}
}

// SendFenced is SendBatch with a BarrierRequest behind the messages in
// the same batch — one flush — that returns without waiting. done runs
// exactly once: with nil when the BarrierReply arrives, by which time
// the datapath has processed and accepted every message of the batch;
// with the datapath's rejections joined into one error when it refused
// any (zof is ordered and an Error reuses the offending XID, so they
// all arrive ahead of the reply); or with the failure when the send
// fails or the session closes first. It runs on this connection's
// reader goroutine (the closer's when the session ends, the caller's
// when the send fails), possibly under controller locks: it must not
// block or wait on the controller. There is no timer: a datapath that
// stops answering without closing is the liveness prober's to evict
// (Config.ProbeInterval), and the eviction fails the fence.
func (s *SwitchConn) SendFenced(done func(error), msgs ...zof.Message) {
	s.intend(msgs...)
	s.fence(func(rejected []AsyncError, err error) { done(joinRejected(rejected, err)) }, msgs...)
}

// fence is SendFenced's mechanism, shared by every writer that must
// learn its batch landed: msgs go out as they are — no stamping, no
// recording — with a BarrierRequest behind them in one flush, and done
// gets the batch's rejections with the barrier's outcome. It returns
// the barrier's XID, which a waiter giving up takes back out of pending
// so that done never runs.
func (s *SwitchConn) fence(done func(rejected []AsyncError, err error), msgs ...zof.Message) uint32 {
	batch := make([]zof.Message, len(msgs)+1)
	xids := make([]uint32, len(batch))
	for i, m := range msgs {
		batch[i], xids[i] = m, s.conn.NextXID()
	}
	xid := s.conn.NextXID()
	batch[len(msgs)], xids[len(msgs)] = &zof.BarrierRequest{}, xid
	if !s.expect(xid, waiter{done: done, ops: xids[:len(msgs)]}) {
		done(nil, zof.ErrConnClosed)
		return xid
	}
	if err := s.conn.SendBatchXIDs(batch, xids); err != nil {
		if w, ok := s.take(xid); ok {
			done(w.rejected, err)
		}
	}
	return xid
}

// fenceResult is one fence's outcome: the Errors its batch drew, and
// the barrier's failure.
type fenceResult struct {
	rejected []AsyncError
	err      error
}

// fenceAll fences batches[i] on conns[i], all at once, and waits for
// every outcome under one timer (none when timeout ≤ 0). A fence still
// out at the deadline is taken back, so its callback never runs, and
// fails with a timeout. This is how a blocking writer brings its own
// deadline to the timerless fence.
func fenceAll(conns []*SwitchConn, batches [][]zof.Message, timeout time.Duration) []fenceResult {
	type answer struct {
		i int
		fenceResult
	}
	answers := make(chan answer, len(conns)) // no callback ever blocks
	res := make([]fenceResult, len(conns))
	xids := make([]uint32, len(conns))
	for i, sc := range conns {
		xids[i] = sc.fence(func(rejected []AsyncError, err error) {
			answers <- answer{i, fenceResult{rejected, err}}
		}, batches[i]...)
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for left := len(conns); left > 0; {
		select {
		case a := <-answers:
			res[a.i] = a.fenceResult
			left--
		case <-expired:
			for i, sc := range conns {
				// A fence the reader or close took first answers anyway.
				if w, ok := sc.take(xids[i]); ok {
					res[i] = fenceResult{w.rejected, fmt.Errorf("timed out after %v", timeout)}
					left--
				}
			}
		}
	}
	return res
}

// joinRejected is err joined with every rejection; nil when both are
// empty.
func joinRejected(rejected []AsyncError, err error) error {
	if len(rejected) == 0 {
		return err
	}
	errs := []error{err}
	for _, r := range rejected {
		errs = append(errs, r)
	}
	return errors.Join(errs...)
}

// Barrier blocks until the datapath has processed everything sent
// before it: a fence with an empty batch.
func (s *SwitchConn) Barrier(timeout time.Duration) error {
	return fenceAll([]*SwitchConn{s}, make([][]zof.Message, 1), timeout)[0].err
}

// Stats performs a synchronous statistics request.
func (s *SwitchConn) Stats(req *zof.StatsRequest, timeout time.Duration) (*zof.StatsReply, error) {
	rep, err := s.request(req, timeout)
	if err != nil {
		return nil, err
	}
	sr, ok := rep.(*zof.StatsReply)
	if !ok {
		return nil, zof.ErrTypeMismatch
	}
	return sr, nil
}

// SetRole claims a controller role on this connection.
func (s *SwitchConn) SetRole(role uint32, gen uint64, timeout time.Duration) (*zof.RoleReply, error) {
	rep, err := s.request(&zof.RoleRequest{Role: role, GenerationID: gen}, timeout)
	if err != nil {
		return nil, err
	}
	rr, ok := rep.(*zof.RoleReply)
	if !ok {
		return nil, zof.ErrTypeMismatch
	}
	return rr, nil
}

// resolve hands an incoming reply to whoever awaits its XID, if anyone.
func (s *SwitchConn) resolve(xid uint32, msg zof.Message) bool {
	w, ok := s.take(xid)
	if ok {
		w.answer(msg)
	}
	return ok
}

// close tears the connection down and fails everything pending.
func (s *SwitchConn) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pend := s.pending
	s.pending = make(map[uint32]waiter)
	s.mu.Unlock()
	close(s.done)
	for _, w := range pend {
		w.answer(nil)
	}
	s.conn.Close()
}
