package zof

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// closeFlushWindow bounds the best-effort flush of coalesced writes
// during Close so a dead peer cannot stall teardown.
const closeFlushWindow = 250 * time.Millisecond

// ConnStats are wire-level counters a Conn records into when one is
// attached with SetStats. One ConnStats may be shared by any number of
// connections (the controller aggregates its whole southbound fleet
// into one), and totals survive individual connections closing — the
// counters are lock-free atomics.
type ConnStats struct {
	// TxMsgs and TxBytes count messages and frame bytes buffered for
	// transmission.
	TxMsgs  obs.Counter
	TxBytes obs.Counter
	// RxMsgs and RxBytes count messages and frame bytes received.
	RxMsgs  obs.Counter
	RxBytes obs.Counter
	// Flushes counts write-buffer flushes — with coalescing enabled,
	// TxMsgs/Flushes is the achieved batching factor.
	Flushes obs.Counter
}

// Conn frames zof messages over a byte stream. One goroutine may call
// Receive while any number call Send; writes are serialized internally.
// The keepalive is the Conn's own business at both ends of the channel:
// Receive answers EchoRequests and routes EchoReplies to Echo, and Probe
// is the one miss-budget prober.
//
// Write flushing has two modes:
//
//   - Immediate (the default): every Send/SendXID flushes the message
//     to the transport before returning — one flush (and usually one
//     syscall) per message. Simple, lowest latency at low rates.
//   - Coalesced (after SetAutoFlush): sends only append to the write
//     buffer; a flusher goroutine flushes once the writer goes idle
//     (plus an optional delay window), so a burst of messages costs a
//     single flush. SendBatch frames a whole burst under one lock and
//     one flush in either mode. Close flushes any coalesced writes
//     (best-effort, bounded by closeFlushWindow) before tearing down.
type Conn struct {
	raw  net.Conn
	br   *bufio.Reader
	xid  atomic.Uint32
	once sync.Once
	err  atomic.Value  // error
	dead chan struct{} // closed with the first error (see down)

	// echoes routes an EchoReply to the Echo awaiting its XID.
	emu    sync.Mutex
	echoes map[uint32]chan []byte

	wmu     sync.Mutex
	bw      *bufio.Writer
	scratch []byte // per-conn encode buffer (guarded by wmu)
	pending int    // messages buffered but not yet flushed (guarded by wmu)

	// stats, when non-nil, receives wire-level accounting; immutable
	// after SetStats (set before concurrent use).
	stats *ConnStats

	// Coalescing state; immutable after SetAutoFlush.
	autoFlush  bool
	flushDelay time.Duration
	flushReq   chan struct{}
	flushQuit  chan struct{}
	flusherWG  sync.WaitGroup
}

// NewConn wraps a net.Conn in immediate-flush mode.
func NewConn(raw net.Conn) *Conn {
	return &Conn{
		raw:    raw,
		br:     bufio.NewReaderSize(raw, 64<<10), // holds any frame (see receive)
		bw:     bufio.NewWriterSize(raw, 64<<10),
		dead:   make(chan struct{}),
		echoes: make(map[uint32]chan []byte),
	}
}

// SetStats attaches wire-level counters; st may be shared across
// connections. Call before the connection is used concurrently.
func (c *Conn) SetStats(st *ConnStats) { c.stats = st }

// SetAutoFlush switches the connection to coalesced writes: sends
// buffer their frames and a flusher goroutine issues the flush as soon
// as it can take the write lock — so messages written while a flush is
// pending ride the same syscall. A positive delay widens the window by
// sleeping before flushing (more batching, more latency); 0 flushes on
// idle. Call at most once, before the connection is used concurrently.
func (c *Conn) SetAutoFlush(delay time.Duration) {
	if c.autoFlush {
		return
	}
	c.autoFlush = true
	if delay < 0 {
		delay = 0
	}
	c.flushDelay = delay
	c.flushReq = make(chan struct{}, 1)
	c.flushQuit = make(chan struct{})
	c.flusherWG.Add(1)
	go c.flusher()
}

// flusher drains flush requests until Close.
func (c *Conn) flusher() {
	defer c.flusherWG.Done()
	for {
		select {
		case <-c.flushQuit:
			return
		case <-c.flushReq:
			if c.flushDelay > 0 {
				select {
				case <-c.flushQuit:
					return // Close performs the final flush
				case <-time.After(c.flushDelay):
				}
			}
			c.wmu.Lock()
			if c.pending > 0 {
				_ = c.flushLocked()
			}
			c.wmu.Unlock()
		}
	}
}

// NextXID returns a fresh transaction id (never 0).
func (c *Conn) NextXID() uint32 { return c.ReserveXIDs(1) }

// ReserveXIDs reserves n ≥ 1 consecutive transaction ids in one step
// and returns the first: first, first+1, ..., first+n-1, none of them 0.
// A block that would wrap through 0 is abandoned and the next one taken.
func (c *Conn) ReserveXIDs(n int) uint32 {
	if n < 1 {
		panic("zof: ReserveXIDs of no XIDs")
	}
	for {
		last := c.xid.Add(uint32(n))
		if first := last - uint32(n) + 1; first != 0 && first <= last {
			return first
		}
	}
}

// Send marshals and writes msg with a fresh XID, returning the XID used.
func (c *Conn) Send(msg Message) (uint32, error) {
	xid := c.NextXID()
	return xid, c.SendXID(msg, xid)
}

// SendXID marshals and writes msg with the caller's XID (used to answer a
// request with the same transaction id). Encoding reuses a per-conn
// buffer, so the steady state allocates nothing.
func (c *Conn) SendXID(msg Message, xid uint32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeLocked(xid, msg); err != nil {
		return err
	}
	return c.finishLocked()
}

// SendBatch frames every message back to back with fresh XIDs and
// flushes once: a burst of flow-mods or packet-outs costs one flush
// (one syscall) instead of one per message. A batch is written whole
// or not at all: if any message fails to frame, none is sent.
func (c *Conn) SendBatch(msgs ...Message) error {
	if len(msgs) == 0 {
		return nil
	}
	return c.SendBatchXID(c.ReserveXIDs(len(msgs)), msgs...)
}

// SendBatchXID is SendBatch under the caller's XID block: msgs[i] goes
// out as first+i, with first reserved by ReserveXIDs(len(msgs)). It
// exists for callers that must register reply routing for the XIDs
// before the messages can reach the peer — a fenced batch whose Error
// replies may come back the instant it is written.
func (c *Conn) SendBatchXID(first uint32, msgs ...Message) error {
	if len(msgs) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeLocked(first, msgs...); err != nil {
		return err
	}
	return c.flushLocked()
}

// writeLocked frames msgs back to back in the shared scratch buffer,
// msgs[i] under XID first+i, and copies the frames into the write
// buffer only once every one has framed, so a batch is buffered whole
// or not at all. Callers hold wmu.
func (c *Conn) writeLocked(first uint32, msgs ...Message) error {
	if err := c.Err(); err != nil {
		return err
	}
	b := c.scratch[:0]
	for i, m := range msgs {
		var err error
		if b, err = MarshalAppend(b, m, first+uint32(i)); err != nil {
			c.scratch = b[:0]
			return err
		}
	}
	c.scratch = b[:0]
	if _, err := c.bw.Write(b); err != nil {
		return c.fail(err)
	}
	c.pending += len(msgs)
	if c.stats != nil {
		c.stats.TxMsgs.Add(uint64(len(msgs)))
		c.stats.TxBytes.Add(uint64(len(b)))
	}
	return nil
}

// finishLocked completes one send: immediate mode flushes now;
// coalesced mode wakes the flusher on the 0→pending transition.
func (c *Conn) finishLocked() error {
	if !c.autoFlush {
		return c.flushLocked()
	}
	if c.pending == 1 {
		select {
		case c.flushReq <- struct{}{}:
		default: // a flush is already scheduled
		}
	}
	return nil
}

func (c *Conn) flushLocked() error {
	flushed := c.pending > 0
	c.pending = 0
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	if flushed && c.stats != nil {
		c.stats.Flushes.Inc()
	}
	return nil
}

// Receive blocks for the next message. The keepalive never reaches the
// caller: an EchoRequest is answered here, with its payload and XID,
// and an EchoReply goes to the Echo awaiting its XID or is dropped. The
// returned Message owns its memory; the connection's buffers are reused.
func (c *Conn) Receive() (Message, Header, error) {
	for {
		msg, h, err := c.receive()
		if err != nil {
			return nil, h, err
		}
		switch m := msg.(type) {
		case *EchoRequest:
			// A failed write fails the conn; the next read reports it.
			_ = c.SendXID(&EchoReply{Data: m.Data}, h.XID)
		case *EchoReply:
			c.answerEcho(h.XID, m.Data)
		default:
			return msg, h, nil
		}
	}
}

// receive reads and decodes one frame. The body is decoded where it
// lies in the read buffer, which is larger than any frame the 16-bit
// Length can declare, so memory is spent on bytes received, never on
// bytes claimed; every DecodeBody copies what it keeps.
func (c *Conn) receive() (Message, Header, error) {
	hdr, err := c.br.Peek(HeaderLen)
	if err != nil {
		return nil, Header{}, c.fail(err)
	}
	h, err := DecodeHeader(hdr)
	c.br.Discard(HeaderLen) // buffered by Peek, so it cannot fail
	if err != nil {
		return nil, h, err
	}
	body, err := c.br.Peek(int(h.Length) - HeaderLen)
	if err != nil {
		return nil, h, c.fail(err)
	}
	msg := NewMessage(h.Type)
	if msg == nil {
		err = ErrBadType
	} else if err = msg.DecodeBody(body); err != nil {
		err = fmt.Errorf("decoding %v: %w", h.Type, err)
	}
	c.br.Discard(len(body)) // buffered by Peek, so it cannot fail
	if err != nil {
		return nil, h, err
	}
	if c.stats != nil {
		c.stats.RxMsgs.Inc()
		c.stats.RxBytes.Add(uint64(int(h.Length)))
	}
	return msg, h, nil
}

// SetDeadline applies to the underlying transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline applies to the underlying transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// Close flushes pending coalesced writes (best-effort, bounded by
// closeFlushWindow) and shuts the transport; safe to call more than
// once.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() {
		c.down(ErrConnClosed)
		// Bound the final flush — and any in-flight write the flusher
		// may be blocked behind — so a dead peer cannot stall Close.
		_ = c.raw.SetWriteDeadline(time.Now().Add(closeFlushWindow))
		if c.autoFlush {
			close(c.flushQuit)
			c.flusherWG.Wait()
		}
		// TryLock: if a writer is mid-send it will observe the closed
		// conn itself; never block teardown on the write path.
		if c.wmu.TryLock() {
			if c.pending > 0 {
				c.pending = 0
				_ = c.bw.Flush()
			}
			c.wmu.Unlock()
		}
		err = c.raw.Close()
	})
	return err
}

// errBox gives atomic.Value a single concrete type to hold regardless
// of the dynamic error type inside.
type errBox struct{ err error }

// Err returns the first transport error seen, or nil.
func (c *Conn) Err() error {
	if v := c.err.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

func (c *Conn) fail(err error) error {
	if err == nil {
		return nil
	}
	c.down(err)
	return err
}

// down records err as the first error and, that first time, closes dead,
// which fails every Echo still waiting and stops the prober.
func (c *Conn) down(err error) {
	if c.err.CompareAndSwap(nil, errBox{err}) {
		close(c.dead)
	}
}

// Handshake runs the symmetric Hello exchange. Call it on both ends
// before any other traffic; it tolerates the peer's Hello arriving first
// or second.
func (c *Conn) Handshake() error {
	if _, err := c.Send(&Hello{}); err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	msg, _, err := c.Receive()
	if err != nil {
		return fmt.Errorf("awaiting hello: %w", err)
	}
	if _, ok := msg.(*Hello); !ok {
		return ErrHandshakeState
	}
	return nil
}
