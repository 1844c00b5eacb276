package netem

import (
	"net"
	"testing"
	"time"

	"repro/internal/zof"
)

// frame wraps payload in a zof EchoRequest wire frame: the relay is
// frame-aware, so test traffic must be parseable zof.
func frame(t *testing.T, payload string) []byte {
	t.Helper()
	b, err := zof.Marshal(&zof.EchoRequest{Data: []byte(payload)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, err := c.Write(buf[:n]); err != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	return ln
}

func dialProxy(t *testing.T, p *ControlProxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestControlProxyForwards(t *testing.T) {
	ln := echoServer(t)
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	msg := frame(t, "hello through the relay")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c, buf); err != nil {
		t.Fatalf("echo read: %v", err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echoed %q, want %q", buf, msg)
	}
	if p.Accepted.Load() != 1 || p.Forwarded.Load() == 0 {
		t.Errorf("counters: accepted=%d forwarded=%d", p.Accepted.Load(), p.Forwarded.Load())
	}
}

// TestControlProxyBlackhole verifies the half-open emulation: bytes are
// silently discarded, the connection stays open (reads time out rather
// than EOF), and lifting the blackhole resumes forwarding.
func TestControlProxyBlackhole(t *testing.T) {
	ln := echoServer(t)
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	p.Blackhole(true)
	if _, err := c.Write(frame(t, "into the void")); err != nil {
		t.Fatalf("write into blackhole should succeed locally: %v", err)
	}
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded through a blackholed relay")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("blackholed read ended with %v, want timeout (half-open, not closed)", err)
	}
	deadline := time.Now().Add(time.Second)
	for p.Discarded.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Discarded.Load() == 0 {
		t.Error("no bytes counted as discarded")
	}

	p.Blackhole(false)
	back := frame(t, "back")
	if _, err := c.Write(back); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c, make([]byte, len(back))); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}

func TestControlProxyDelay(t *testing.T) {
	ln := echoServer(t)
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	const d = 30 * time.Millisecond
	p.SetDelay(d)
	start := time.Now()
	ping := frame(t, "ping")
	if _, err := c.Write(ping); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(ping))
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c, buf); err != nil {
		t.Fatal(err)
	}
	// One delay each way.
	if rtt := time.Since(start); rtt < 2*d {
		t.Errorf("rtt = %v, want >= %v", rtt, 2*d)
	}
}

func TestControlProxyDropConnections(t *testing.T) {
	ln := echoServer(t)
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	warm := frame(t, "warm")
	if _, err := c.Write(warm); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(warm))
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c, buf); err != nil {
		t.Fatal(err)
	}

	p.DropConnections()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("connection survived DropConnections")
	}
	// The listener stays up: a redial works.
	c2 := dialProxy(t, p)
	redial := frame(t, "redial")
	if _, err := c2.Write(redial); err != nil {
		t.Fatal(err)
	}
	_ = c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c2, make([]byte, len(redial))); err != nil {
		t.Fatalf("echo after redial: %v", err)
	}
}

// readFull reads exactly len(buf) bytes.
func readFull(c net.Conn, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// TestControlProxyFlowModPolicy drives the per-FlowMod fault policy:
// controller→switch FlowMods can be silently dropped or answered with
// an injected Error carrying the original XID, while other message
// types and the switch→controller direction pass untouched.
func TestControlProxyFlowModPolicy(t *testing.T) {
	ln := echoServer(t) // plays the "switch" behind the proxy
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The proxy treats its accept side as the switch and the dial side
	// as the controller, so to exercise the controller→switch policy the
	// test must write FlowMods from the dial side. Arrange that by
	// proxying to the echo server and connecting as the switch; frames
	// the echo server returns traverse the controller→switch direction.
	c := dialProxy(t, p)

	p.SetFlowModPolicy(func(fm *zof.FlowMod) (FlowModDecision, uint16) {
		switch fm.Priority {
		case 1111:
			return FlowModDrop, 0
		case 2222:
			return FlowModReject, zof.ErrCodeTableFull
		}
		return FlowModPass, 0
	})

	mkFlowMod := func(prio uint16, xid uint32) []byte {
		b, err := zof.Marshal(&zof.FlowMod{
			Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: prio,
			BufferID: zof.NoBuffer,
		}, xid)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// A passed FlowMod echoes all the way back (switch→controller leg
	// ignores the policy, so the echoed copy returns unmodified).
	pass := mkFlowMod(42, 5)
	if _, err := c.Write(pass); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	back := make([]byte, len(pass))
	if _, err := readFull(c, back); err != nil {
		t.Fatalf("passed flowmod did not round-trip: %v", err)
	}

	// A dropped FlowMod vanishes: nothing comes back.
	if _, err := c.Write(mkFlowMod(1111, 6)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c.Read(back); err == nil {
		t.Fatal("dropped flowmod was forwarded")
	}

	// A rejected FlowMod comes back as an Error with the same XID.
	if _, err := c.Write(mkFlowMod(2222, 7)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	hdr := make([]byte, zof.HeaderLen)
	if _, err := readFull(c, hdr); err != nil {
		t.Fatalf("no injected error: %v", err)
	}
	h, err := zof.DecodeHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != zof.TypeError || h.XID != 7 {
		t.Fatalf("injected reply type=%v xid=%d, want error xid=7", h.Type, h.XID)
	}
	body := make([]byte, int(h.Length)-zof.HeaderLen)
	if _, err := readFull(c, body); err != nil {
		t.Fatal(err)
	}
	var e zof.Error
	if err := e.DecodeBody(body); err != nil {
		t.Fatal(err)
	}
	if e.Code != zof.ErrCodeTableFull {
		t.Errorf("injected code = %d, want table-full", e.Code)
	}
	if p.DroppedMods.Load() != 2 || p.InjectedErrors.Load() != 1 {
		t.Errorf("counters: dropped=%d injected=%d", p.DroppedMods.Load(), p.InjectedErrors.Load())
	}

	// Policy removed: everything passes again.
	p.SetFlowModPolicy(nil)
	again := mkFlowMod(1111, 8)
	if _, err := c.Write(again); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(c, make([]byte, len(again))); err != nil {
		t.Fatalf("flowmod blocked after policy removal: %v", err)
	}
}

// TestControlProxyDelayPipelines checks that SetDelay is latency, not a
// rate cap: 32 frames written at once come back one delay each way
// later, not 32 delays later.
func TestControlProxyDelayPipelines(t *testing.T) {
	ln := echoServer(t)
	p, err := NewControlProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	const d = 20 * time.Millisecond
	const frames = 32
	p.SetDelay(d)
	var burst []byte
	for i := 0; i < frames; i++ {
		burst = append(burst, frame(t, "pipelined")...)
	}
	start := time.Now()
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFull(c, make([]byte, len(burst))); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 2*d || rtt > 2*d+100*time.Millisecond {
		t.Errorf("%d frames back after %v, want 2×%v plus slack", frames, rtt, d)
	}
}
