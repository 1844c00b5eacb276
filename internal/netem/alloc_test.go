//go:build !race

package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
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

// TestStreamDeadlineZeroAlloc pins the deadline path a cluster peer
// takes around every envelope write: setting and clearing a deadline
// arms no timer, so it allocates nothing.
func TestStreamDeadlineZeroAlloc(t *testing.T) {
	a, b := StreamPair()
	defer a.Close()
	defer b.Close()
	at := time.Now().Add(time.Hour)
	if n := testing.AllocsPerRun(1000, func() {
		a.SetWriteDeadline(at)
		a.SetWriteDeadline(time.Time{})
	}); n != 0 {
		t.Errorf("deadline set+clear: %v allocs, want 0", n)
	}
}
