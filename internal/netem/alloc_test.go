//go:build !race

package netem

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/zof"
)

// TestHostSendUDPZeroAlloc pins the echo path's host stack: with the
// peer's MAC known, SendUDP serializes into a pooled buffer and
// allocates nothing, and neither does a pipe carrying the frame to a
// host that decodes it.
func TestHostSendUDPZeroAlloc(t *testing.T) {
	a := NewHost("a", packet.IPv4Addr{10, 0, 0, 1})
	b := NewHost("b", packet.IPv4Addr{10, 0, 0, 2})
	a.SeedARP(b.IP, b.MAC)
	payload := make([]byte, 22)
	a.SetTx(func([]byte) bool { return true })
	if n := testing.AllocsPerRun(1000, func() { a.SendUDP(b.IP, 7000, 7001, payload) }); n != 0 {
		t.Errorf("SendUDP: %v allocs per call, want 0", n)
	}

	p := NewBatchPipe(PipeConfig{BurstSize: 32}, b.DeliverBatch)
	defer p.Close()
	a.SetTx(p.Send)
	if n := testing.AllocsPerRun(1000, func() {
		a.SendUDP(b.IP, 7000, 7001, payload)
		p.Drain()
	}); n != 0 {
		t.Errorf("SendUDP through a pipe: %v allocs per frame, want 0", n)
	}
	if got := b.RxUDP.Load(); got != 1001 {
		t.Errorf("host b decoded %d datagrams, want 1001", got)
	}
}

// TestReadFrameZeroAlloc pins the relay's frame reader: once its buffer
// has grown to the frame size, reading a frame allocates nothing.
func TestReadFrameZeroAlloc(t *testing.T) {
	msg, err := zof.Marshal(&zof.EchoRequest{Data: make([]byte, 200)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(msg)
		br.Reset(src)
		buf, _, err = readFrame(br, buf)
		if err != nil || len(buf) != len(msg) {
			t.Fatalf("readFrame: %d bytes, %v", len(buf), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("readFrame allocates %.1f times per frame, want 0", allocs)
	}
}
