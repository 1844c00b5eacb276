package netem

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/zof"
)

// testChannel returns a Channel whose dial yields both ends of a new
// stream: the dialer's (a switch) and the server's (a controller).
func testChannel(t *testing.T) (*Channel, func() (net.Conn, net.Conn)) {
	t.Helper()
	served := make(chan net.Conn, 1)
	ch := NewChannel(func(c net.Conn) { served <- c })
	t.Cleanup(func() { ch.Close() })
	return ch, func() (net.Conn, net.Conn) {
		d, err := ch.Dial()
		if err != nil {
			t.Fatal(err)
		}
		s := <-served
		t.Cleanup(func() { d.Close(); s.Close() })
		return d, s
	}
}

// frame wraps payload in a zof EchoRequest: a Channel judges whole zof
// frames, so test traffic must be parseable zof.
func frame(t *testing.T, payload string) []byte {
	t.Helper()
	b, err := zof.Marshal(&zof.EchoRequest{Data: []byte(payload)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func flowMod(t *testing.T, prio uint16, xid uint32) []byte {
	t.Helper()
	b, err := zof.Marshal(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: prio, BufferID: zof.NoBuffer}, xid)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func send(t *testing.T, c net.Conn, b []byte) {
	t.Helper()
	if _, err := c.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// expect reads exactly want from c.
func expect(t *testing.T, c net.Conn, want []byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("read %x, want %x", got, want)
	}
}

// expectMute requires a read on c to time out: the stream is up, silent.
func expectMute(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var ne net.Error
	if n, err := c.Read(make([]byte, 64)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read %d bytes, %v; want a timeout (half-open, not closed)", n, err)
	}
	c.SetReadDeadline(time.Time{})
}

// expectClosed requires a read on c to fail at once, delivering nothing.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var ne net.Error
	if n, err := c.Read(make([]byte, 64)); n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("read %d bytes, %v; want the stream severed", n, err)
	}
}

// readMsg reads one whole zof frame from c.
func readMsg(t *testing.T, c net.Conn) (zof.Message, zof.Header) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	hdr := make([]byte, zof.HeaderLen)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatalf("read header: %v", err)
	}
	h, err := zof.DecodeHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, int(h.Length)-zof.HeaderLen)
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	msg := zof.NewMessage(h.Type)
	if err := msg.DecodeBody(body); err != nil {
		t.Fatal(err)
	}
	return msg, h
}

var channelCases = []struct {
	name string
	run  func(t *testing.T)
}{
	{"Forward", func(t *testing.T) {
		_, dial := testChannel(t)
		d, s := dial()
		up, down := frame(t, "switch to controller"), frame(t, "controller to switch")
		send(t, d, up)
		expect(t, s, up)
		send(t, s, down)
		expect(t, d, down)
	}},
	{"BlackholeHalfOpen", func(t *testing.T) {
		ch, dial := testChannel(t)
		d1, s1 := dial() // its server end closes while blackholed
		d2, s2 := dial() // survives the blackhole
		ch.Blackhole(true)
		send(t, d1, frame(t, "into the void"))
		send(t, s2, frame(t, "out of the void"))
		expectMute(t, s1)
		expectMute(t, d2)
		if up, down := ch.toServer.Load(), ch.toDialer.Load(); up != 1 || down != 1 {
			t.Errorf("discarded frames %d up, %d down; want 1 each way", up, down)
		}
		s1.Close()
		expectMute(t, d1) // the close is not seen: half-open
		ch.Blackhole(false)
		expectMute(t, d1) // not even once healed
		back := frame(t, "back")
		send(t, d2, back)
		expect(t, s2, back)
		ch.DropConnections()
		expectClosed(t, d1)
	}},
	{"Delay", func(t *testing.T) {
		// One delay each way: an echoed frame is back no sooner than 2d.
		ch, dial := testChannel(t)
		d, s := dial()
		const delay = 30 * time.Millisecond
		ch.SetDelay(delay)
		ping := frame(t, "ping")
		go func() {
			buf := make([]byte, len(ping))
			if _, err := io.ReadFull(s, buf); err == nil {
				s.Write(buf)
			}
		}()
		start := time.Now()
		send(t, d, ping)
		expect(t, d, ping)
		if rtt := time.Since(start); rtt < 2*delay {
			t.Errorf("rtt = %v, want >= %v", rtt, 2*delay)
		}
	}},
	{"DelayPipelines", func(t *testing.T) {
		// Latency, not a rate cap: 32 frames written at once come back one
		// delay each way later, not 32 delays later.
		ch, dial := testChannel(t)
		d, s := dial()
		const delay = 20 * time.Millisecond
		ch.SetDelay(delay)
		var burst []byte
		for i := 0; i < 32; i++ {
			burst = append(burst, frame(t, "pipelined")...)
		}
		go func() {
			buf := make([]byte, len(burst))
			if _, err := io.ReadFull(s, buf); err == nil {
				s.Write(buf)
			}
		}()
		start := time.Now()
		send(t, d, burst)
		expect(t, d, burst)
		if rtt := time.Since(start); rtt < 2*delay || rtt > 2*delay+100*time.Millisecond {
			t.Errorf("32 frames back after %v, want 2×%v plus slack", rtt, delay)
		}
	}},
	{"DropConnections", func(t *testing.T) {
		ch, dial := testChannel(t)
		d, s := dial()
		warm := frame(t, "warm")
		send(t, d, warm)
		expect(t, s, warm)
		ch.DropConnections()
		expectClosed(t, d)
		expectClosed(t, s)
		d2, s2 := dial() // the channel still dials
		redial := frame(t, "redial")
		send(t, d2, redial)
		expect(t, s2, redial)
	}},
	{"FlowModPolicy", func(t *testing.T) {
		// Server→dialer FlowMods can be dropped or answered with an
		// injected Error carrying their XID; other messages and the
		// dialer→server leg pass untouched.
		ch, dial := testChannel(t)
		d, s := dial()
		ch.SetFlowModPolicy(func(fm *zof.FlowMod) (FlowModDecision, uint16) {
			switch fm.Priority {
			case 1111:
				return FlowModDrop, 0
			case 2222:
				return FlowModReject, zof.ErrCodeTableFull
			}
			return FlowModPass, 0
		})
		pass := flowMod(t, 42, 5)
		send(t, s, pass)
		expect(t, d, pass)

		send(t, s, flowMod(t, 1111, 6))
		expectMute(t, d)

		send(t, s, flowMod(t, 2222, 7))
		msg, h := readMsg(t, s)
		if e, ok := msg.(*zof.Error); !ok || h.XID != 7 || e.Code != zof.ErrCodeTableFull {
			t.Fatalf("injected reply %#v xid=%d, want a table-full Error with xid 7", msg, h.XID)
		}
		expectMute(t, d)

		up := flowMod(t, 1111, 8)
		send(t, d, up)
		expect(t, s, up)

		ch.SetFlowModPolicy(nil)
		again := flowMod(t, 1111, 9)
		send(t, s, again)
		expect(t, d, again)
	}},
	{"FlowModSplitAcrossWrites", func(t *testing.T) {
		// A buffered writer can split a frame across two Writes; the frame
		// is judged once, when its last byte arrives, and delivered whole.
		ch, dial := testChannel(t)
		d, s := dial()
		var judged atomic.Int32
		ch.SetFlowModPolicy(func(*zof.FlowMod) (FlowModDecision, uint16) {
			judged.Add(1)
			return FlowModPass, 0
		})
		fm := flowMod(t, 42, 5)
		for _, cut := range []int{3, zof.HeaderLen + 5} {
			send(t, s, fm[:cut])
			expectMute(t, d)
			send(t, s, fm[cut:])
			expect(t, d, fm)
		}
		if n := judged.Load(); n != 2 {
			t.Errorf("two split FlowMods judged %d times, want 2", n)
		}
	}},
	{"PolicyDropsConnections", func(t *testing.T) {
		// A policy that severs the channel itself: nothing written behind
		// the judged frame is delivered, and the writer learns of it.
		ch, dial := testChannel(t)
		d, s := dial()
		ch.SetFlowModPolicy(func(fm *zof.FlowMod) (FlowModDecision, uint16) {
			if fm.Priority == 1111 {
				ch.DropConnections()
				return FlowModDrop, 0
			}
			return FlowModPass, 0
		})
		batch := append(flowMod(t, 1111, 1), frame(t, "written behind")...)
		if _, err := s.Write(batch); err == nil {
			t.Error("write went on past a severed channel")
		}
		expectClosed(t, d)
	}},
	{"PartitionCutHeal", func(t *testing.T) {
		// A symmetric cut across two channels: both directions of both
		// members discard whole frames, counted per direction, with every
		// stream held open; after Heal the same streams deliver again.
		ch1, dial1 := testChannel(t)
		ch2, dial2 := testChannel(t)
		d1, s1 := dial1()
		d2, s2 := dial2()
		pt := NewPartition(ch1, ch2)
		if pt.IsCut() {
			t.Fatal("new partition reports cut")
		}
		pt.Cut()
		pt.Cut() // idempotent
		if !pt.IsCut() || !ch1.Blackholed() || !ch2.Blackholed() {
			t.Fatal("Cut did not blackhole every member")
		}
		send(t, d1, frame(t, "into the cut"))
		send(t, d2, frame(t, "into the cut"))
		expectMute(t, s1)
		expectMute(t, s2)
		if toServer, toDialer := pt.Dropped(); toServer != 2 || toDialer != 0 {
			t.Errorf("dropped %d toServer, %d toDialer; want 2 and 0", toServer, toDialer)
		}
		pt.Heal()
		pt.Heal() // idempotent
		if pt.IsCut() || ch1.Blackholed() || ch2.Blackholed() {
			t.Fatal("Heal did not restore every member")
		}
		msg := frame(t, "after heal")
		send(t, d1, msg)
		send(t, d2, msg)
		expect(t, s1, msg)
		expect(t, s2, msg)
	}},
	{"PartitionDroppedToDialer", func(t *testing.T) {
		// A frame the server pushes during the cut counts toward the dialer.
		push := frame(t, "server push")
		ch := NewChannel(func(c net.Conn) { c.Write(push) })
		defer ch.Close()
		pt := NewPartition(ch)
		pt.Cut()
		d, err := ch.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, toDialer := pt.Dropped(); toDialer != 1 {
			t.Fatalf("dropped toDialer = %d, want 1", toDialer)
		}
	}},
}

func TestChannel(t *testing.T) {
	for _, tc := range channelCases {
		t.Run(tc.name, tc.run)
	}
}

// TestChannelDialAfterClose: a closed Channel refuses new streams.
func TestChannelDialAfterClose(t *testing.T) {
	ch := NewChannel(func(c net.Conn) { t.Error("served a stream after Close") })
	ch.Close()
	if _, err := ch.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after Close: %v, want net.ErrClosed", err)
	}
}
