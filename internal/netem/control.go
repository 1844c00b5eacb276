package netem

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// FlowModDecision is a per-message verdict from a FlowModPolicy.
type FlowModDecision int

const (
	// FlowModPass relays the message unchanged.
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
// FlowModReject. Called from the relay goroutine; must not block.
type FlowModPolicy func(fm *zof.FlowMod) (FlowModDecision, uint16)

// ControlProxy sits between a datapath and its controller as a
// userspace relay and injects control-channel faults the emulated
// data plane (Pipe/Network) cannot express: blackholing the zof
// session without closing it — the classic half-open TCP failure a
// liveness prober exists to detect — adding one-way delay, severing
// every connection at once to emulate a control-network partition
// healing or a middlebox dropping state, and dropping or rejecting
// individual FlowMods to exercise transactional rollback.
//
// The relay is frame-aware in both directions: it parses zof message
// boundaries and forwards whole frames, so an injected Error reply can
// never split a frame mid-stream.
//
// Point the switch's session at Addr() instead of the controller and
// drive the fault schedule from the test or experiment.
type ControlProxy struct {
	target string
	ln     net.Listener

	blackhole atomic.Bool
	delayNs   atomic.Int64

	pmu    sync.RWMutex
	policy FlowModPolicy

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // both legs of every live relay
	closed bool

	// Accepted counts switch-side connections accepted; Forwarded and
	// Discarded count relayed vs blackholed bytes (both directions).
	// DroppedMods counts FlowMods eaten by the policy (dropped or
	// rejected); InjectedErrors counts Error replies written back on
	// rejects.
	Accepted       atomic.Uint64
	Forwarded      atomic.Uint64
	Discarded      atomic.Uint64
	DroppedMods    atomic.Uint64
	InjectedErrors atomic.Uint64

	// Per-direction blackhole accounting, in whole frames: ToTarget is
	// the dialer→target direction (switch→controller on a southbound
	// relay, sender→peer on a cluster east-west link), ToDialer the
	// reverse. A partition experiment reads these to report how much
	// traffic each side kept sending into the void before detecting
	// the cut.
	DiscardedToTarget atomic.Uint64
	DiscardedToDialer atomic.Uint64
}

// SetFlowModPolicy installs (or, with nil, removes) the per-FlowMod
// fault policy applied to controller→switch traffic.
func (p *ControlProxy) SetFlowModPolicy(fn FlowModPolicy) {
	p.pmu.Lock()
	p.policy = fn
	p.pmu.Unlock()
}

func (p *ControlProxy) flowModPolicy() FlowModPolicy {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.policy
}

// NewControlProxy starts a relay on an ephemeral loopback port that
// forwards to target (the controller's southbound address).
func NewControlProxy(target string) (*ControlProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ControlProxy{
		target: target,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the address switches should dial instead of the controller.
func (p *ControlProxy) Addr() string { return p.ln.Addr().String() }

// Blackhole toggles silent discard: while on, bytes in both directions
// are read and dropped, and — crucially — a broken leg does not close
// its peer, so the far end sees a connection that is up but mute (a
// half-open session). Turning blackhole off resumes forwarding on
// connections that survived; use DropConnections to clear ones whose
// other leg died while blackholed.
func (p *ControlProxy) Blackhole(on bool) { p.blackhole.Store(on) }

// Blackholed reports the current blackhole state.
func (p *ControlProxy) Blackholed() bool { return p.blackhole.Load() }

// SetDelay delays every relayed frame d past the read that brought it in,
// both ways (RTT grows by ~2d): latency, not a rate cap. Zero removes it.
func (p *ControlProxy) SetDelay(d time.Duration) { p.delayNs.Store(int64(d)) }

// DropConnections severs every live relay abruptly (RSTish: both legs
// closed with relay state discarded), emulating a switch crash or a
// stateful middlebox flushing its table. The listener stays up, so
// reconnects succeed.
func (p *ControlProxy) DropConnections() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close shuts the listener and severs all relays.
func (p *ControlProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.DropConnections()
	return err
}

func (p *ControlProxy) acceptLoop() {
	for {
		src, err := p.ln.Accept()
		if err != nil {
			return
		}
		dst, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			src.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			src.Close()
			dst.Close()
			return
		}
		p.conns[src] = struct{}{}
		p.conns[dst] = struct{}{}
		p.mu.Unlock()
		p.Accepted.Add(1)
		// One write mutex per socket: the controller-side leg takes
		// forwarded switch→controller frames AND injected Error replies,
		// which must not interleave mid-frame.
		srcMu, dstMu := new(sync.Mutex), new(sync.Mutex)
		go p.pump(src, dst, srcMu, dstMu, false)
		go p.pump(dst, src, dstMu, srcMu, true)
	}
}

// readFrame reads one whole zof frame (header + body) from br into
// buf, growing buf in place (only once the length has been checked).
func readFrame(br *bufio.Reader, buf []byte) ([]byte, zof.Header, error) {
	buf = slices.Grow(buf[:0], zof.HeaderLen)[:zof.HeaderLen]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, zof.Header{}, err
	}
	h, err := zof.DecodeHeader(buf)
	if err != nil {
		return buf, h, err
	}
	if int(h.Length) < zof.HeaderLen || int(h.Length) > zof.MaxMessageLen {
		return buf, h, zof.ErrMessageTooBig
	}
	buf = slices.Grow(buf, int(h.Length)-zof.HeaderLen)[:h.Length]
	if _, err := io.ReadFull(br, buf[zof.HeaderLen:]); err != nil {
		return buf, h, err
	}
	return buf, h, nil
}

// stampReader stamps each frame with the read that completed or buffered it.
type stampReader struct {
	io.Reader
	at time.Time
}

func (s *stampReader) Read(b []byte) (n int, err error) {
	n, err = s.Reader.Read(b)
	s.at = time.Now()
	return
}

// pump relays whole zof frames src→dst, honoring blackhole, delay and
// — on the controller→switch direction — the FlowMod policy. When src
// dies while blackholed, the pump exits without touching dst — that is
// the half-open emulation: dst's owner keeps a live, silent socket. In
// normal operation src's death closes dst so EOF propagates. srcMu and
// dstMu serialize writes to the respective sockets (injected Error
// replies go back out src).
func (p *ControlProxy) pump(src, dst net.Conn, srcMu, dstMu *sync.Mutex, ctlToSwitch bool) {
	in := &stampReader{Reader: src}
	br := bufio.NewReaderSize(in, 64<<10)
	var buf []byte
	for {
		frame, h, err := readFrame(br, buf)
		buf = frame
		if err != nil {
			if !p.blackhole.Load() {
				dst.Close()
				p.forget(dst)
			}
			p.forget(src)
			src.Close()
			return
		}
		if p.blackhole.Load() {
			p.Discarded.Add(uint64(len(frame)))
			if ctlToSwitch {
				p.DiscardedToDialer.Add(1)
			} else {
				p.DiscardedToTarget.Add(1)
			}
			continue
		}
		if d := p.delayNs.Load(); d > 0 {
			time.Sleep(time.Until(in.at.Add(time.Duration(d))))
		}
		if ctlToSwitch && h.Type == zof.TypeFlowMod {
			if policy := p.flowModPolicy(); policy != nil {
				var fm zof.FlowMod
				if fm.DecodeBody(frame[zof.HeaderLen:]) == nil {
					switch decision, code := policy(&fm); decision {
					case FlowModDrop:
						p.DroppedMods.Add(1)
						// Let a fault the policy set off (a session kill, say)
						// land before the frames batched behind this one are
						// relayed, as it would if they had come in a later write.
						runtime.Gosched()
						continue
					case FlowModReject:
						p.DroppedMods.Add(1)
						rej, merr := zof.Marshal(&zof.Error{Code: code, Detail: "injected by proxy"}, h.XID)
						if merr == nil {
							srcMu.Lock()
							_, werr := src.Write(rej)
							srcMu.Unlock()
							if werr == nil {
								p.InjectedErrors.Add(1)
							}
						}
						continue
					}
				}
			}
		}
		dstMu.Lock()
		_, werr := dst.Write(frame)
		dstMu.Unlock()
		if werr != nil {
			dst.Close()
			p.forget(dst)
			p.forget(src)
			src.Close()
			return
		}
		p.Forwarded.Add(uint64(len(frame)))
	}
}

func (p *ControlProxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}
