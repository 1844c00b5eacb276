package zof

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// readRaw reads one frame off a raw transport, below Conn.
func readRaw(t *testing.T, r io.Reader) (Message, Header) {
	t.Helper()
	frame := make([]byte, HeaderLen)
	if _, err := io.ReadFull(r, frame); err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, make([]byte, int(h.Length)-HeaderLen)...)
	if _, err := io.ReadFull(r, frame[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	msg, _, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return msg, h
}

// writeRaw frames msg onto a raw transport, below Conn.
func writeRaw(t *testing.T, w io.Writer, msg Message, xid uint32) {
	t.Helper()
	b, err := Marshal(msg, xid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
}

// reading runs c's reader until c dies, the way every owner does.
func reading(c *Conn) {
	go func() {
		for {
			if _, _, err := c.Receive(); err != nil {
				return
			}
		}
	}()
}

// echoErr runs Echo in the background.
func echoErr(c *Conn, data []byte, timeout time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() { done <- c.Echo(data, timeout) }()
	return done
}

// within fails unless done yields within d, and returns what it yields.
func within[T any](t *testing.T, d time.Duration, done <-chan T) T {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(d):
		t.Fatalf("nothing within %v", d)
		panic("unreachable")
	}
}

// TestEchoAndProbe is the keepalive's table: a Conn answers and awaits
// echoes itself, and one prober serves both ends of the channel. Each
// case gets a Conn on a and the bare transport of its peer on b.
func TestEchoAndProbe(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *Conn, peer net.Conn)
	}{
		{"ReceiveAnswersEcho", func(t *testing.T, c *Conn, peer net.Conn) {
			writeRaw(t, peer, &EchoRequest{Data: []byte("ping")}, 7)
			writeRaw(t, peer, &Experimenter{Data: []byte("next")}, 8)
			msg, h, err := c.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if exp, ok := msg.(*Experimenter); !ok || string(exp.Data) != "next" || h.XID != 8 {
				t.Fatalf("Receive returned %#v (xid %d), want the frame behind the echo", msg, h.XID)
			}
			rep, rh := readRaw(t, peer)
			if er, ok := rep.(*EchoReply); !ok || string(er.Data) != "ping" || rh.XID != 7 {
				t.Fatalf("echo answered with %#v (xid %d), want EchoReply ping xid 7", rep, rh.XID)
			}
		}},
		{"EchoRoundTrip", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			done := echoErr(c, []byte("seq-1"), 2*time.Second)
			req, h := readRaw(t, peer)
			writeRaw(t, peer, &EchoReply{Data: req.(*EchoRequest).Data}, h.XID)
			if err := within(t, 2*time.Second, done); err != nil {
				t.Fatalf("Echo: %v", err)
			}
		}},
		{"EchoWrongPayload", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			done := echoErr(c, []byte("seq-1"), 2*time.Second)
			_, h := readRaw(t, peer)
			writeRaw(t, peer, &EchoReply{Data: []byte("seq-0")}, h.XID)
			if err := within(t, 2*time.Second, done); !errors.Is(err, ErrEchoPayload) {
				t.Fatalf("Echo = %v, want ErrEchoPayload", err)
			}
		}},
		{"EchoTimesOut", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			err := within(t, 2*time.Second, echoErr(c, []byte("x"), 20*time.Millisecond))
			if err == nil || errors.Is(err, ErrConnClosed) {
				t.Fatalf("Echo to a mute peer = %v, want a timeout", err)
			}
		}},
		{"EchoFailsOnClose", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			done := echoErr(c, []byte("x"), time.Hour)
			readRaw(t, peer) // the request is out; the peer stays mute
			c.Close()
			if err := within(t, time.Second, done); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("Echo after Close = %v, want ErrConnClosed", err)
			}
		}},
		{"EchoFailsOnPeerClose", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			done := echoErr(c, []byte("x"), time.Hour)
			readRaw(t, peer)
			peer.Close()
			if err := within(t, time.Second, done); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("Echo after the peer closed = %v, want ErrConnClosed", err)
			}
		}},
		{"ProbeEvictsMutePeer", func(t *testing.T, c *Conn, peer net.Conn) {
			const (
				interval = 40 * time.Millisecond
				timeout  = 20 * time.Millisecond
				misses   = 3
			)
			reading(c)
			var st ProbeStats
			err := c.Probe(ProbeConfig{ID: 9, Interval: interval, Timeout: timeout, Misses: misses}, &st, nil)
			if err == nil {
				t.Fatal("Probe against a mute peer returned nil")
			}
			if p, m, e := st.Probes.Value(), st.Misses.Value(), st.Evictions.Value(); p != misses || m != misses || e != 1 {
				t.Errorf("probes/misses/evictions = %d/%d/%d, want %d/%d/1", p, m, e, misses, misses)
			}
			bound := interval * misses
			if d := st.LastDetection(); d <= 0 || d > bound {
				t.Errorf("detection %v outside (0, %v]", d, bound)
			}
			if !errors.Is(c.Err(), ErrConnClosed) {
				t.Errorf("conn after eviction: Err = %v, want ErrConnClosed", c.Err())
			}
			// Each probe carried the ID and its sequence number.
			for seq := byte(1); seq <= misses; seq++ {
				req, _ := readRaw(t, peer)
				data := req.(*EchoRequest).Data
				if len(data) != 16 || data[7] != 9 || data[15] != seq {
					t.Fatalf("probe %d payload = %x", seq, data)
				}
			}
		}},
		{"ProbeLivePeer", func(t *testing.T, c *Conn, peer net.Conn) {
			reading(c)
			reading(NewConn(peer)) // answers every probe
			var st ProbeStats
			stop := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- c.Probe(ProbeConfig{Interval: 5 * time.Millisecond}, &st, stop)
			}()
			for st.Probes.Value() < 5 {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			if err := within(t, time.Second, done); err != nil {
				t.Fatalf("Probe = %v, want nil once stopped", err)
			}
			if m, e := st.Misses.Value(), st.Evictions.Value(); m != 0 || e != 0 {
				t.Errorf("misses/evictions against a live peer = %d/%d, want 0/0", m, e)
			}
			if c.Err() != nil {
				t.Errorf("stopped prober left the conn with %v", c.Err())
			}
		}},
		{"ProbeStopsAtOnce", func(t *testing.T, c *Conn, peer net.Conn) {
			var st ProbeStats
			stop := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- c.Probe(ProbeConfig{Interval: time.Hour}, &st, stop) }()
			close(stop)
			if err := within(t, time.Second, done); err != nil || st.Probes.Value() != 0 {
				t.Fatalf("Probe = %v after %d probes, want nil after none", err, st.Probes.Value())
			}
		}},
		{"ProbeEndsWithConn", func(t *testing.T, c *Conn, peer net.Conn) {
			var st ProbeStats
			done := make(chan error, 1)
			go func() { done <- c.Probe(ProbeConfig{Interval: time.Hour}, &st, nil) }()
			c.Close()
			if err := within(t, time.Second, done); err != nil {
				t.Fatalf("Probe = %v after Close, want nil", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tcpPair(t)
			c := NewConn(a)
			defer c.Close()
			defer b.Close()
			_ = b.SetDeadline(time.Now().Add(5 * time.Second))
			tc.run(t, c, b)
		})
	}
}

// TestMarshalRefusesOversizedFrame pins the frame limit: the header's
// Length is 16 bits, so a frame of MaxMessageLen bytes is the largest
// one, and a larger one is refused whole — never written with a wrapped
// length — while the conn that refused it stays usable.
func TestMarshalRefusesOversizedFrame(t *testing.T) {
	largest := &Experimenter{Data: make([]byte, MaxMessageLen-HeaderLen-8)}
	b, err := Marshal(largest, 1)
	if err != nil {
		t.Fatalf("a %d-byte frame: %v", MaxMessageLen, err)
	}
	if h, _ := DecodeHeader(b); int(h.Length) != len(b) || len(b) != MaxMessageLen {
		t.Fatalf("header length %d for a %d-byte frame", h.Length, len(b))
	}
	over := &Experimenter{Data: make([]byte, MaxMessageLen-HeaderLen-8+1)}
	prefix := []byte{1, 2, 3}
	got, err := MarshalAppend(prefix, over, 1)
	if !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("a %d-byte frame: err = %v, want ErrMessageTooBig", MaxMessageLen+1, err)
	}
	if len(got) != len(prefix) {
		t.Errorf("MarshalAppend kept %d bytes of a refused frame", len(got)-len(prefix))
	}

	a, peer := tcpPair(t)
	c := NewConn(a)
	defer c.Close()
	defer peer.Close()
	if _, err := c.Send(over); !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("Send oversized = %v, want ErrMessageTooBig", err)
	}
	if _, err := c.Send(&Experimenter{Data: []byte("after")}); err != nil {
		t.Fatalf("conn unusable after a refused frame: %v", err)
	}
	_ = peer.SetDeadline(time.Now().Add(2 * time.Second))
	if msg, _ := readRaw(t, peer); string(msg.(*Experimenter).Data) != "after" {
		t.Fatalf("peer read %#v, want only the frame after the refusal", msg)
	}
}
