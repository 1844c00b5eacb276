package netem

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// streamWindow is what a direction holds before Write blocks (a loopback socket buffer).
const streamWindow = 256 << 10

// StreamPair returns the ends of an in-process stream that behaves like a
// loopback socket: in order, Write blocks only past streamWindow, EOF after
// drain once the peer closes, net.ErrClosed after Close, deadlines work.
func StreamPair() (net.Conn, net.Conn) {
	a, b := newStreamPair(nil)
	return a, b
}

// newStreamPair returns the dialer's end and the server's end; ch, when
// set, is the Channel whose faults both directions obey.
func newStreamPair(ch *Channel) (*streamConn, *streamConn) {
	ab, ba := &streamPipe{ch: ch}, &streamPipe{ch: ch}
	ab.cond.L, ba.cond.L = &ab.mu, &ba.mu
	if ch != nil {
		ab.discards, ba.discards = &ch.toServer, &ch.toDialer
		ba.rev = ab
	}
	return &streamConn{rx: ba, tx: ab}, &streamConn{rx: ab, tx: ba}
}

// streamConn is one end: it reads rx and writes tx.
type streamConn struct{ rx, tx *streamPipe }

// streamPipe is one direction: a buffer whose one cond wakes reader and writer.
type streamPipe struct {
	mu                         sync.Mutex
	cond                       sync.Cond
	buf                        []byte
	off                        int // buf[off:] is unread
	readerClosed, writerClosed bool
	eof                        bool      // the reader sees EOF once buf drains
	readDL, writeDL            time.Time // zero: none
	holds                      []hold    // delayed frames, oldest first
	wake                       *time.Timer
	armed                      time.Time // when wake fires; zero: idle

	// Set on a Channel's pipes only (see channel.go).
	ch       *Channel
	wmu      sync.Mutex     // serializes Writes, which judge frames outside mu
	pend     []byte         // the bytes of a frame not yet complete
	discards *atomic.Uint64 // frames a blackhole ate in this direction
	rev      *streamPipe    // set on the serve→dialer leg: rejections go here
}

// hold keeps buf[start:] unreadable until at.
type hold struct {
	start int
	at    time.Time
}

func (c *streamConn) Read(b []byte) (int, error) {
	p := c.rx
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		end := p.readable()
		switch {
		case p.readerClosed:
			return 0, net.ErrClosed
		case p.off < end:
			n := copy(b, p.buf[p.off:end])
			if p.off += n; p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.cond.Broadcast()
			return n, nil
		case p.eof && p.off == len(p.buf):
			return 0, io.EOF
		case expired(p.readDL):
			return 0, os.ErrDeadlineExceeded
		}
		p.wakeAt(p.readDL)
		if len(p.holds) > 0 {
			p.wakeAt(p.holds[0].at)
		}
		p.cond.Wait()
	}
}

// readable returns where the bytes a reader may take now end: all of
// buf, short of the first frame a delay still holds.
func (p *streamPipe) readable() int {
	if len(p.holds) == 0 {
		return len(p.buf)
	}
	now := time.Now()
	for len(p.holds) > 0 && !now.Before(p.holds[0].at) {
		p.holds = p.holds[1:]
	}
	if len(p.holds) == 0 {
		p.holds = nil
		return len(p.buf)
	}
	return p.holds[0].start
}

func (c *streamConn) Write(b []byte) (int, error) {
	p := c.tx
	if p.ch != nil {
		return p.writeFrames(b)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.waitRoom(); err != nil {
		return 0, err
	}
	p.push(b, time.Time{})
	p.cond.Broadcast()
	return len(b), nil
}

// waitRoom blocks until the window has room for a write. Callers hold p.mu.
func (p *streamPipe) waitRoom() error {
	for {
		blackholed := p.ch != nil && p.ch.blackhole.Load()
		switch {
		case p.writerClosed:
			return net.ErrClosed
		case p.readerClosed && !blackholed:
			return io.ErrClosedPipe
		case expired(p.writeDL):
			return os.ErrDeadlineExceeded
		case blackholed || len(p.buf)-p.off <= streamWindow:
			return nil
		}
		p.wakeAt(p.writeDL)
		p.cond.Wait()
	}
}

// push appends b, readable from at on (zero: at once). Callers hold p.mu.
func (p *streamPipe) push(b []byte, at time.Time) {
	if p.off > 0 && len(p.buf)+len(b) > cap(p.buf) {
		p.buf = p.buf[:copy(p.buf, p.buf[p.off:])]
		for i := range p.holds {
			p.holds[i].start -= p.off
		}
		p.off = 0
	}
	if !at.IsZero() && (len(p.holds) == 0 || !p.holds[len(p.holds)-1].at.Equal(at)) {
		p.holds = append(p.holds, hold{start: len(p.buf), at: at})
	}
	p.buf = append(p.buf, b...)
}

// update changes the pipe's state under its lock and wakes every waiter.
func (p *streamPipe) update(change func()) {
	p.mu.Lock()
	change()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wakeAt has the pipe's one timer wake its waiters at t, unless it is
// already due to fire sooner. Callers hold p.mu.
func (p *streamPipe) wakeAt(t time.Time) {
	if t.IsZero() || (!p.armed.IsZero() && !t.Before(p.armed)) {
		return
	}
	p.armed = t
	if p.wake == nil {
		p.wake = time.AfterFunc(time.Until(t), p.fire)
	} else {
		p.wake.Reset(time.Until(t))
	}
}

func (p *streamPipe) fire() { p.update(func() { p.armed = time.Time{} }) }

func expired(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }

// A deadline only wakes the waiters, which arm the timer for it themselves.
func (c *streamConn) SetReadDeadline(t time.Time) error {
	c.rx.update(func() { c.rx.readDL = t })
	return nil
}

func (c *streamConn) SetWriteDeadline(t time.Time) error {
	c.tx.update(func() { c.tx.writeDL = t })
	return nil
}

func (c *streamConn) SetDeadline(t time.Time) error {
	_ = c.SetReadDeadline(t) // never fails
	return c.SetWriteDeadline(t)
}

func (c *streamConn) LocalAddr() net.Addr  { return streamAddr{} }
func (c *streamConn) RemoteAddr() net.Addr { return streamAddr{} }

// Close ends both directions at this end. The peer sees EOF once it has
// read what was sent — unless the end belongs to a blackholed Channel,
// where the peer sees nothing until DropConnections (half-open).
func (c *streamConn) Close() error {
	visible := true
	if ch := c.tx.ch; ch != nil {
		visible = !ch.blackhole.Load()
		ch.forget(c)
	}
	c.shut(visible)
	return nil
}

// shut closes this end; visible says whether the peer's reads see it.
func (c *streamConn) shut(visible bool) {
	c.rx.update(func() { c.rx.readerClosed = true })
	c.tx.update(func() { c.tx.writerClosed, c.tx.eof = true, c.tx.eof || visible })
}

type streamAddr struct{}

func (streamAddr) Network() string { return "stream" }
func (streamAddr) String() string  { return "in-process" }
