package netem

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// FlowModDecision is a per-message verdict from a FlowModPolicy.
type FlowModDecision int

const (
	// FlowModPass delivers the message unchanged.
	FlowModPass FlowModDecision = iota
	// FlowModDrop silently discards the message — the op is lost on the
	// wire, as if a lossy control network ate it.
	FlowModDrop
	// FlowModReject discards the message and writes a zof.Error with
	// the message's XID and the policy's code back to the controller,
	// emulating a switch refusing the op (table full, bad group, ...).
	FlowModReject
)

// FlowModPolicy inspects a controller→switch FlowMod and decides its
// fate. The code is the zof error code used when the decision is
// FlowModReject. It runs on the writer's goroutine, inside its Write,
// so it must not write to that stream; it may call the Channel's own
// methods — DropConnections included: frames written behind the judged
// one are then never delivered.
type FlowModPolicy func(fm *zof.FlowMod) (FlowModDecision, uint16)

// Channel is a control channel the emulation can fault: every Dial makes
// an in-process stream (StreamPair) whose two directions obey the
// Channel's fault state, and hands the far end to serve. There is no
// listener, socket or goroutine per connection. Frames are judged whole
// — a frame split across Writes is judged once its last byte is written
// — so a fault never cuts a zof frame in two.
//
// The faults a data-plane Pipe cannot express: blackholing the session
// without closing it — the half-open failure a liveness prober exists to
// detect —, one-way delay, severing every connection at once (a switch
// crash, a middlebox flushing its state), and dropping or rejecting
// single FlowMods to exercise transactional rollback.
type Channel struct {
	serve func(net.Conn)

	blackhole atomic.Bool
	delayNs   atomic.Int64
	policy    atomic.Pointer[FlowModPolicy]

	// Frames a blackhole discarded: dialer→server and the reverse.
	toServer, toDialer atomic.Uint64

	mu     sync.Mutex
	conns  map[*streamConn]struct{} // both ends of every live stream
	closed bool
}

// NewChannel returns a Channel whose Dial hands the far end of each new
// stream to serve (controller.Controller.Serve, cluster.Instance.Serve).
func NewChannel(serve func(net.Conn)) *Channel {
	return &Channel{serve: serve, conns: make(map[*streamConn]struct{})}
}

// Dial opens a stream, hands its far end to serve and returns the near
// end. After Close it fails with net.ErrClosed.
func (ch *Channel) Dial() (net.Conn, error) {
	near, far := newStreamPair(ch)
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil, net.ErrClosed
	}
	ch.conns[near], ch.conns[far] = struct{}{}, struct{}{}
	ch.mu.Unlock()
	ch.serve(far)
	return near, nil
}

// Blackhole toggles silent discard: while on, whole frames in both
// directions are dropped and counted, and an end closed meanwhile is not
// seen by its peer until DropConnections — each side keeps a stream
// that is up but mute (a half-open session). Turning it off resumes
// delivery on the streams that survived.
func (ch *Channel) Blackhole(on bool) { ch.blackhole.Store(on) }

// Blackholed reports the current blackhole state.
func (ch *Channel) Blackholed() bool { return ch.blackhole.Load() }

// SetDelay makes every frame readable d after the Write that completed
// it, both ways (RTT grows by 2d): frames in flight together are delayed
// together — latency, not a rate cap. Zero removes it.
func (ch *Channel) SetDelay(d time.Duration) { ch.delayNs.Store(int64(d)) }

// SetFlowModPolicy installs (or, with nil, removes) the per-FlowMod
// fault policy applied on the server→dialer leg.
func (ch *Channel) SetFlowModPolicy(fn FlowModPolicy) { ch.policy.Store(&fn) }

// DropConnections severs every live stream abruptly: both ends fail at
// once and undelivered frames are lost, as after a switch crash or a
// stateful middlebox flushing its table. New Dials still succeed.
func (ch *Channel) DropConnections() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for c := range ch.conns {
		c.shut(true)
	}
	clear(ch.conns)
}

// Close severs every stream and fails every later Dial.
func (ch *Channel) Close() error {
	ch.mu.Lock()
	ch.closed = true
	ch.mu.Unlock()
	ch.DropConnections()
	return nil
}

func (ch *Channel) forget(c *streamConn) {
	ch.mu.Lock()
	delete(ch.conns, c)
	ch.mu.Unlock()
}

// writeFrames is Write on a Channel's pipe: bytes wait in pend until
// they complete a frame, and each complete frame is judged exactly once.
func (p *streamPipe) writeFrames(b []byte) (int, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.waitRoom(); err != nil {
		return 0, err
	}
	var at time.Time
	if d := p.ch.delayNs.Load(); d > 0 {
		at = time.Now().Add(time.Duration(d))
	}
	p.pend = append(p.pend, b...)
	n := 0
	for len(p.pend)-n >= zof.HeaderLen {
		h, err := zof.DecodeHeader(p.pend[n:])
		if err != nil {
			p.pend = p.pend[:0]
			return 0, err
		}
		if len(p.pend)-n < int(h.Length) {
			break
		}
		frame := p.pend[n : n+int(h.Length)]
		n += int(h.Length)
		if !p.judge(frame, h, at) {
			p.pend = p.pend[:0]
			return 0, net.ErrClosed
		}
	}
	p.pend = p.pend[:copy(p.pend, p.pend[n:])]
	p.cond.Broadcast()
	return len(b), nil
}

// judge delivers, drops or rejects one whole frame, and reports false if
// the stream was severed while the policy ran. Callers hold p.mu; it is
// released around the policy call.
func (p *streamPipe) judge(frame []byte, h zof.Header, at time.Time) bool {
	if p.ch.blackhole.Load() {
		p.discards.Add(1)
		return true
	}
	if policy := p.ch.policy.Load(); p.rev != nil && policy != nil && *policy != nil && h.Type == zof.TypeFlowMod {
		var fm zof.FlowMod
		if fm.DecodeBody(frame[zof.HeaderLen:]) == nil {
			p.mu.Unlock()
			decision, code := (*policy)(&fm)
			if decision == FlowModReject {
				p.rev.inject(&zof.Error{Code: code, Detail: "injected by channel"}, h.XID, at)
			}
			p.mu.Lock()
			if p.readerClosed || p.writerClosed {
				return false
			}
			if decision != FlowModPass {
				return true
			}
		}
	}
	p.push(frame, at)
	return true
}

// inject delivers msg as a whole frame between the frames already
// written, never inside a partial one.
func (p *streamPipe) inject(msg zof.Message, xid uint32, at time.Time) {
	frame, err := zof.Marshal(msg, xid)
	if err != nil {
		return
	}
	p.mu.Lock()
	if !p.readerClosed {
		p.push(frame, at)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}
