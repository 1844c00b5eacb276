package netem

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// streamWindow is what a direction holds before Write blocks (a loopback socket buffer).
const streamWindow = 256 << 10

// StreamPair returns the ends of an in-process stream that behaves like a
// loopback socket: in order, Write blocks only past streamWindow, EOF after
// drain once the peer closes, net.ErrClosed after Close, deadlines work.
func StreamPair() (net.Conn, net.Conn) {
	ab, ba := &streamPipe{}, &streamPipe{}
	ab.cond.L, ba.cond.L = &ab.mu, &ba.mu
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
	readDL, writeDL            time.Time // zero: none
}

func (c *streamConn) Read(b []byte) (int, error) {
	p := c.rx
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.readerClosed:
			return 0, net.ErrClosed
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			if p.off += n; p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.cond.Broadcast()
			return n, nil
		case p.writerClosed:
			return 0, io.EOF
		case expired(p.readDL):
			return 0, os.ErrDeadlineExceeded
		}
		p.cond.Wait()
	}
}

func (c *streamConn) Write(b []byte) (int, error) {
	p := c.tx
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.writerClosed:
			return 0, net.ErrClosed
		case p.readerClosed:
			return 0, io.ErrClosedPipe
		case expired(p.writeDL):
			return 0, os.ErrDeadlineExceeded
		case len(p.buf)-p.off <= streamWindow:
			if p.off > 0 && len(p.buf)+len(b) > cap(p.buf) {
				p.buf, p.off = p.buf[:copy(p.buf, p.buf[p.off:])], 0
			}
			p.buf = append(p.buf, b...)
			p.cond.Broadcast()
			return len(b), nil
		}
		p.cond.Wait()
	}
}

// update changes the pipe's state under its lock and wakes every waiter.
func (p *streamPipe) update(change func()) {
	p.mu.Lock()
	change()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// setDeadline also wakes the waiters at t (harmless if superseded).
func (p *streamPipe) setDeadline(dl *time.Time, t time.Time) error {
	p.update(func() { *dl = t })
	if !t.IsZero() {
		time.AfterFunc(time.Until(t), func() { p.update(func() {}) })
	}
	return nil
}

func expired(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }

func (c *streamConn) SetReadDeadline(t time.Time) error  { return c.rx.setDeadline(&c.rx.readDL, t) }
func (c *streamConn) SetWriteDeadline(t time.Time) error { return c.tx.setDeadline(&c.tx.writeDL, t) }
func (c *streamConn) LocalAddr() net.Addr                { return streamAddr{} }
func (c *streamConn) RemoteAddr() net.Addr               { return streamAddr{} }

func (c *streamConn) SetDeadline(t time.Time) error {
	_ = c.SetReadDeadline(t) // never fails
	return c.SetWriteDeadline(t)
}

func (c *streamConn) Close() error {
	c.rx.update(func() { c.rx.readerClosed = true })
	c.tx.update(func() { c.tx.writerClosed = true })
	return nil
}

type streamAddr struct{}

func (streamAddr) Network() string { return "stream" }
func (streamAddr) String() string  { return "in-process" }
