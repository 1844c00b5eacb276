package controller

import (
	"bytes"
	"fmt"
	"net"
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

	// reconciling is set from registration until the post-reconnect
	// stale-epoch flush completes; the auditor skips the switch while
	// it holds (see registerSwitch).
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
	// blocked request or a fence's callback, one mechanism for both.
	// The handler is called once, off the map: with the reply on the
	// connection's reader, or with nil by close when the session ends
	// first. It must not block.
	pending map[uint32]func(zof.Message)
	watches map[uint32]*errCollector // txn XIDs → async-error collector
	closed  bool
}

// errCollector accumulates the async Error replies observed for one
// transaction's tracked XIDs.
type errCollector struct {
	mu   sync.Mutex
	errs []AsyncError
}

func (w *errCollector) add(e AsyncError) {
	w.mu.Lock()
	w.errs = append(w.errs, e)
	w.mu.Unlock()
}

func (w *errCollector) take() []AsyncError {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.errs
	w.errs = nil
	return out
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
			// Tolerate early asynchronous noise (echo, packet-in) but
			// nothing else before features.
			switch m := msg.(type) {
			case *zof.EchoRequest:
				// Echo the payload like the steady-state path does: the
				// peer may be verifying the round trip.
				_ = conn.SendXID(&zof.EchoReply{Data: m.Data}, h.XID)
				continue
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
			pending:  make(map[uint32]func(zof.Message)),
			watches:  make(map[uint32]*errCollector),
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

// sendWatched writes msgs as one batch without stamping or recording —
// the transaction engine's raw send: stamping happened at staging, and
// the store only commits after the barrier fence. The XIDs are
// allocated and routed into w before anything reaches the wire, so an
// instant Error reply cannot slip past the watcher. Callers must
// unwatchXIDs the returned XIDs when done.
func (s *SwitchConn) sendWatched(w *errCollector, msgs ...zof.Message) ([]uint32, error) {
	xids := make([]uint32, len(msgs))
	for i := range xids {
		xids[i] = s.conn.NextXID()
	}
	s.watchXIDs(xids, w)
	return xids, s.conn.SendBatchXIDs(msgs, xids)
}

// watchXIDs routes any async Error reply carrying one of xids into w
// instead of the controller's unsolicited-error path.
func (s *SwitchConn) watchXIDs(xids []uint32, w *errCollector) {
	s.mu.Lock()
	for _, x := range xids {
		s.watches[x] = w
	}
	s.mu.Unlock()
}

// unwatchXIDs removes the routes installed by watchXIDs.
func (s *SwitchConn) unwatchXIDs(xids []uint32) {
	s.mu.Lock()
	for _, x := range xids {
		delete(s.watches, x)
	}
	s.mu.Unlock()
}

// noteAsyncError hands an Error reply to the transaction watching its
// XID, if any.
func (s *SwitchConn) noteAsyncError(xid uint32, e *zof.Error) bool {
	s.mu.Lock()
	w := s.watches[xid]
	s.mu.Unlock()
	if w == nil {
		return false
	}
	w.add(AsyncError{DPID: s.dpid, XID: xid, Code: e.Code, Detail: e.Detail})
	return true
}

// expect routes the reply to a fresh XID into onReply (see pending);
// ok is false, and nothing is registered, when the session has closed.
func (s *SwitchConn) expect(onReply func(zof.Message)) (xid uint32, ok bool) {
	xid = s.conn.NextXID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false
	}
	s.pending[xid] = onReply
	return xid, true
}

// take removes xid's reply handler and returns it; nil means someone
// else — the reader, close, the requester giving up — already has.
func (s *SwitchConn) take(xid uint32) func(zof.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.pending[xid]
	delete(s.pending, xid)
	return h
}

// request sends msg and blocks for the reply carrying the same xid.
func (s *SwitchConn) request(msg zof.Message, timeout time.Duration) (zof.Message, error) {
	ch := make(chan zof.Message, 1) // the handler's one send never blocks
	xid, ok := s.expect(func(rep zof.Message) { ch <- rep })
	if !ok {
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
// the datapath has processed every message of the batch, or with the
// failure when the send fails or the session closes first. It runs on
// this connection's reader goroutine (the closer's when the session
// ends, the caller's when the send fails), possibly under controller
// locks: it must not block or wait on the controller. There is no
// timer: a datapath that stops answering without closing is the
// liveness prober's to evict (Config.ProbeInterval), and the eviction
// fails the fence.
func (s *SwitchConn) SendFenced(done func(error), msgs ...zof.Message) {
	fence, ok := s.expect(func(rep zof.Message) {
		switch m := rep.(type) {
		case nil:
			done(zof.ErrConnClosed)
		case *zof.BarrierReply:
			done(nil)
		case *zof.Error:
			done(m)
		default:
			done(zof.ErrTypeMismatch)
		}
	})
	if !ok {
		done(zof.ErrConnClosed)
		return
	}
	batch := make([]zof.Message, len(msgs)+1)
	xids := make([]uint32, len(batch))
	for i, m := range msgs {
		batch[i], xids[i] = m, s.conn.NextXID()
	}
	batch[len(msgs)], xids[len(msgs)] = &zof.BarrierRequest{}, fence
	s.intend(msgs...)
	if err := s.conn.SendBatchXIDs(batch, xids); err != nil && s.take(fence) != nil {
		done(err)
	}
}

// Barrier blocks until the datapath has processed everything sent
// before it.
func (s *SwitchConn) Barrier(timeout time.Duration) error {
	rep, err := s.request(&zof.BarrierRequest{}, timeout)
	if err != nil {
		return err
	}
	if _, ok := rep.(*zof.BarrierReply); !ok {
		return zof.ErrTypeMismatch
	}
	return nil
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

// Echo round-trips a keepalive.
func (s *SwitchConn) Echo(timeout time.Duration) error {
	return s.EchoData([]byte("zen"), timeout)
}

// EchoData round-trips a keepalive carrying data and verifies the peer
// echoed the payload back intact — a reply of the right type with the
// wrong bytes indicates a desynchronized or misbehaving peer and
// returns zof.ErrEchoPayload. The liveness prober uses per-probe
// payloads so a stale reply cannot satisfy a fresh probe.
func (s *SwitchConn) EchoData(data []byte, timeout time.Duration) error {
	rep, err := s.request(&zof.EchoRequest{Data: data}, timeout)
	if err != nil {
		return err
	}
	er, ok := rep.(*zof.EchoReply)
	if !ok {
		return zof.ErrTypeMismatch
	}
	if !bytes.Equal(er.Data, data) {
		return zof.ErrEchoPayload
	}
	return nil
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
	h := s.take(xid)
	if h != nil {
		h(msg)
	}
	return h != nil
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
	s.pending = make(map[uint32]func(zof.Message))
	s.mu.Unlock()
	close(s.done)
	for _, h := range pend {
		h(nil)
	}
	s.conn.Close()
}
