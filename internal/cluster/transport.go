package cluster

import (
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// East-west traffic rides the same zof framing as the southbound
// channel, wrapped in Experimenter messages: the netem fault surface
// (Channel, Partition) judges whole zof frames, so cluster peer links
// can be blackholed, delayed and partitioned with the exact machinery
// that faults switch channels — no second emulation layer.
const (
	// expCluster identifies cluster traffic ("zen!" in ASCII).
	expCluster uint32 = 0x7a656e21
	// expEnvelope is the single ExpType used; the JSON envelope's Kind
	// field discriminates.
	expEnvelope uint32 = 1
)

// Envelope kinds.
const (
	kindHeartbeat = "heartbeat"
	kindClaim     = "claim"
	kindRelease   = "release"
	kindDeltas    = "deltas"
	kindRequest   = "request"
)

// envelope is the one wire schema of the cluster protocol. JSON keeps
// the protocol debuggable from a packet capture; the volume (small
// control messages at heartbeat cadence) does not justify a binary
// codec.
type envelope struct {
	Kind string
	From int // sender's instance ID

	// Heartbeat: lease renewals for everything the sender holds, plus
	// its delta-log version vector for anti-entropy comparison.
	Renewals []leaseRenewal    `json:",omitempty"`
	VV       map[string]uint64 `json:",omitempty"`

	// Claim / Release.
	DPID uint64 `json:",omitempty"`
	Term uint64 `json:",omitempty"`

	// Deltas: a contiguous run of one origin's log, starting at First.
	Origin int     `json:",omitempty"`
	First  uint64  `json:",omitempty"`
	Deltas []Delta `json:",omitempty"`

	// Request: "send me every origin's deltas after these sequence
	// numbers" (keys are origin IDs; JSON maps need string keys).
	Want map[string]uint64 `json:",omitempty"`
}

type leaseRenewal struct {
	DPID uint64
	Term uint64
}

// peerLink is this instance's outbound channel to one peer: a bounded
// queue drained by a dedicated sender goroutine. Callers only ever
// enqueue — the tick loop, a dispatch worker replicating a delta, a
// claim goroutine: none of them may stall on a dead peer's dial. The
// sender pays the (deadline-bounded) handshake and write costs alone;
// a full queue drops the message, which is the protocol's best-effort
// contract anyway — lost deltas leave a version-vector gap that
// anti-entropy repairs, lost claims and renewals repeat at the next
// heartbeat.
type peerLink struct {
	id   int
	dial func() (net.Conn, error)

	out     chan *envelope
	quit    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	sent    *atomic.Uint64
	dropped atomic.Uint64

	mu       sync.Mutex
	conn     *zof.Conn
	raw      net.Conn
	lastDial time.Time
}

func newPeerLink(id int, dial func() (net.Conn, error), interval time.Duration, sent *atomic.Uint64) *peerLink {
	p := &peerLink{
		id:   id,
		dial: dial,
		out:  make(chan *envelope, 256),
		quit: make(chan struct{}),
		sent: sent,
	}
	p.wg.Add(1)
	go p.sendLoop(interval)
	return p
}

// enqueue hands env to the sender, dropping when the queue is full.
// The envelope must not be mutated after enqueue — broadcast shares one
// envelope across every peer's sender.
func (p *peerLink) enqueue(env *envelope) {
	select {
	case p.out <- env:
	default:
		p.dropped.Add(1)
	}
}

func (p *peerLink) sendLoop(interval time.Duration) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case env := <-p.out:
			if p.write(env, interval) == nil {
				p.sent.Add(1)
			}
		}
	}
}

// write marshals env into an Experimenter frame and writes it to the
// peer, dialing first if needed. The handshake and every write are
// bounded by interval (one heartbeat) — a partitioned peer must cost a
// bounded stall, never wedge the sender (a handshake against a
// blackhole would otherwise block forever waiting for a Hello that was
// discarded). Errors drop the connection; the first write one interval
// past the last dial redials.
func (p *peerLink) write(env *envelope, interval time.Duration) error {
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	msg := &zof.Experimenter{Experimenter: expCluster, ExpType: expEnvelope, Data: data}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if time.Since(p.lastDial) < interval {
			return net.ErrClosed
		}
		p.lastDial = time.Now()
		raw, err := p.dial()
		if err != nil {
			return err
		}
		raw.SetDeadline(time.Now().Add(interval))
		conn := zof.NewConn(raw)
		if err := conn.Handshake(); err != nil {
			conn.Close()
			return err
		}
		raw.SetDeadline(time.Time{})
		p.conn, p.raw = conn, raw
	}
	p.raw.SetWriteDeadline(time.Now().Add(interval))
	_, err = p.conn.Send(msg)
	p.raw.SetWriteDeadline(time.Time{})
	if err != nil {
		p.conn.Close()
		p.conn, p.raw = nil, nil
		return err
	}
	return nil
}

func (p *peerLink) close() {
	p.stop.Do(func() { close(p.quit) })
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn, p.raw = nil, nil
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Serve starts an inbound peer session over conn and returns at once:
// handshake, then decode every Experimenter frame into an envelope and
// hand it to the instance. Identity comes from the envelope's From
// field — links are unidirectional (each instance dials its own
// outbound side). After Close it closes conn and starts nothing.
func (in *Instance) Serve(raw net.Conn) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		raw.Close()
		return
	}
	conn := zof.NewConn(raw)
	in.inbound[conn] = struct{}{}
	in.wg.Add(1)
	go in.servePeer(conn)
}

func (in *Instance) servePeer(conn *zof.Conn) {
	defer in.wg.Done()
	defer func() {
		conn.Close()
		in.mu.Lock()
		delete(in.inbound, conn)
		in.mu.Unlock()
	}()
	if err := conn.Handshake(); err != nil {
		return
	}
	for {
		msg, _, err := conn.Receive()
		if err != nil {
			return
		}
		exp, ok := msg.(*zof.Experimenter)
		if !ok || exp.Experimenter != expCluster || exp.ExpType != expEnvelope {
			continue // tolerate foreign traffic (echo probes, late hellos)
		}
		var env envelope
		if json.Unmarshal(exp.Data, &env) != nil {
			continue
		}
		in.handle(&env)
	}
}

// peerSnapshot copies the peer list (Join may still be racing early
// ticks; the slice header must be read under the lock).
func (in *Instance) peerSnapshot() []*peerLink {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*peerLink(nil), in.peers...)
}

// broadcast fans env out to every peer, best-effort and asynchronous:
// a dead or partitioned peer just misses the message and repairs later
// via anti-entropy (deltas) or lease expiry (claims).
func (in *Instance) broadcast(env *envelope) {
	env.From = in.cfg.ID
	for _, p := range in.peerSnapshot() {
		p.enqueue(env)
	}
}

// sendTo sends env to one peer, best-effort and asynchronous.
func (in *Instance) sendTo(id int, env *envelope) {
	env.From = in.cfg.ID
	for _, p := range in.peerSnapshot() {
		if p.id == id {
			p.enqueue(env)
			return
		}
	}
}
