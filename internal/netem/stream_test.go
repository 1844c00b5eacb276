package netem

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/zof"
)

// tcpPair returns the two ends of a loopback TCP connection: the
// transport StreamPair replaces, and the reference its contract is
// read against.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// streamContract is what core.Start relies on from its control-channel
// transport; every case runs against both a loopback TCP pair and
// StreamPair.
var streamContract = []struct {
	name string
	run  func(t *testing.T, a, b net.Conn)
}{
	{"InOrderBothWays", func(t *testing.T, a, b net.Conn) {
		// Each end writes a seeded stream in seeded random chunks, more
		// than one window's worth, while the other end reads it.
		var wg sync.WaitGroup
		for i, pair := range [][2]net.Conn{{a, b}, {b, a}} {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			want := make([]byte, 1<<20)
			rng.Read(want)
			w, r := pair[0], pair[1]
			wg.Add(2)
			go func() {
				defer wg.Done()
				for rest := want; len(rest) > 0; {
					n := min(1+rng.Intn(3000), len(rest))
					if _, err := w.Write(rest[:n]); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					rest = rest[n:]
				}
			}()
			go func() {
				defer wg.Done()
				got := make([]byte, len(want))
				if _, err := io.ReadFull(r, got); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("bytes arrived changed or out of order")
				}
			}()
		}
		wg.Wait()
	}},
	{"EOFAfterDrain", func(t *testing.T, a, b net.Conn) {
		if _, err := a.Write([]byte("last words")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil || string(got) != "last words" {
			t.Fatalf("read %q, %v; want the bytes then EOF", got, err)
		}
	}},
	{"ErrClosedAfterLocalClose", func(t *testing.T, a, b net.Conn) {
		a.Close()
		if _, err := a.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
			t.Errorf("read after Close: %v, want net.ErrClosed", err)
		}
		if _, err := a.Write([]byte{1}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("write after Close: %v, want net.ErrClosed", err)
		}
	}},
	{"PeerCloseReleasesWrite", func(t *testing.T, a, b net.Conn) {
		// b never reads, so a's writes fill every buffer and block;
		// b's Close must release the writer with an error.
		done := make(chan error, 1)
		go func() {
			chunk := make([]byte, 64<<10)
			for {
				if _, err := a.Write(chunk); err != nil {
					done <- err
					return
				}
			}
		}()
		time.Sleep(50 * time.Millisecond)
		b.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("write still blocked after the peer closed")
		}
	}},
	{"DeadlineReleasesRead", func(t *testing.T, a, b net.Conn) {
		done := make(chan error, 1)
		go func() {
			_, err := a.Read(make([]byte, 1))
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("blocked read ended with %v, want a timeout net.Error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("read still blocked past its deadline")
		}
		// A cleared deadline reads again.
		a.SetReadDeadline(time.Time{})
		if _, err := b.Write([]byte{7}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Read(make([]byte, 1)); err != nil {
			t.Fatalf("read after clearing the deadline: %v", err)
		}
	}},
	{"ZofCloseFlushes", func(t *testing.T, a, b net.Conn) {
		// A coalesced write still buffered at Close goes out in the final
		// flush.
		zc := zof.NewConn(a)
		zc.SetAutoFlush(time.Hour)
		if _, err := zc.Send(&zof.EchoRequest{Data: []byte("bye")}); err != nil {
			t.Fatal(err)
		}
		zc.Close()
		msg, _, err := zof.NewConn(b).Receive()
		if err != nil {
			t.Fatalf("final flush lost: %v", err)
		}
		if er, ok := msg.(*zof.EchoRequest); !ok || string(er.Data) != "bye" {
			t.Fatalf("received %#v, want the buffered echo", msg)
		}
	}},
}

func TestStreamContract(t *testing.T) {
	transports := []struct {
		name string
		pair func(t *testing.T) (net.Conn, net.Conn)
	}{
		{"tcp", tcpPair},
		{"stream", func(*testing.T) (net.Conn, net.Conn) { return StreamPair() }},
	}
	for _, tr := range transports {
		for _, tc := range streamContract {
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				a, b := tr.pair(t)
				defer a.Close()
				defer b.Close()
				tc.run(t, a, b)
			})
		}
	}
}

// TestStreamWriteBlocksPastWindow pins the back-pressure bound: a
// writer may run ahead of its reader by one window, no further.
func TestStreamWriteBlocksPastWindow(t *testing.T) {
	a, b := StreamPair()
	defer a.Close()
	defer b.Close()
	if _, err := a.Write(make([]byte, streamWindow+1)); err != nil {
		t.Fatal(err)
	}
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := a.Write([]byte{1}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past the window: %v, want it to block until the deadline", err)
	}
	if _, err := io.ReadFull(b, make([]byte, streamWindow+1)); err != nil {
		t.Fatal(err)
	}
	a.SetWriteDeadline(time.Time{})
	if _, err := a.Write([]byte{1}); err != nil {
		t.Fatalf("write after the reader drained: %v", err)
	}
}
