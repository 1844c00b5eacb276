package netem

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// TestBatchPipeDeliversInOrder checks the batch pump's core contract:
// every sent frame arrives exactly once, in order, in batches no larger
// than BurstSize.
func TestBatchPipeDeliversInOrder(t *testing.T) {
	var mu sync.Mutex
	var frames []string
	var sizes []int
	p := NewBatchPipe(PipeConfig{BurstSize: 8}, func(batch [][]byte) {
		mu.Lock()
		sizes = append(sizes, len(batch))
		for _, f := range batch {
			frames = append(frames, string(f))
		}
		mu.Unlock()
	})
	defer p.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if !p.Send([]byte(fmt.Sprintf("f%03d", i))) {
			t.Fatalf("send %d failed", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := len(frames)
		mu.Unlock()
		if got == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != n {
		t.Fatalf("delivered %d of %d", len(frames), n)
	}
	for i, f := range frames {
		if f != fmt.Sprintf("f%03d", i) {
			t.Fatalf("frame %d = %q: order lost", i, f)
		}
	}
	for _, s := range sizes {
		if s < 1 || s > 8 {
			t.Fatalf("batch size %d outside [1, BurstSize]", s)
		}
	}
	if p.Sent.Load() != n || p.Dropped.Load() != 0 {
		t.Errorf("stats = %d sent / %d dropped", p.Sent.Load(), p.Dropped.Load())
	}
}

// TestBatchPipeCoalesces verifies queued backlog actually comes out in
// multi-frame batches: wedge delivery, queue a pile, release.
func TestBatchPipeCoalesces(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var sizes []int
	first := true
	p := NewBatchPipe(PipeConfig{BurstSize: 16, QueueLen: 64}, func(batch [][]byte) {
		if first {
			first = false
			<-gate // wedge on the first delivery while the queue fills
		}
		mu.Lock()
		sizes = append(sizes, len(batch))
		mu.Unlock()
	})
	defer p.Close()
	for i := 0; i < 33; i++ {
		if !p.Send([]byte("x")) {
			t.Fatalf("send %d failed", i)
		}
	}
	close(gate)
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if max < 2 {
		t.Fatalf("backlog never coalesced: batch sizes %v", sizes)
	}
	if max > 16 {
		t.Fatalf("batch size %d exceeds BurstSize", max)
	}
}

// TestBatchPipeDown checks blackholing accounts whole batches.
func TestBatchPipeDown(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	p := NewBatchPipe(PipeConfig{BurstSize: 4}, func(batch [][]byte) {
		mu.Lock()
		delivered += len(batch)
		mu.Unlock()
	})
	defer p.Close()
	p.SetDown(true)
	if p.Send([]byte("x")) {
		t.Fatal("send on down batch pipe accepted")
	}
	p.SetDown(false)
	if !p.Send([]byte("x")) {
		t.Fatal("send after restore failed")
	}
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if p.Dropped.Load() != 1 {
		t.Errorf("dropped = %d, want 1", p.Dropped.Load())
	}
}

// TestHostDeliverBatch checks the host's batch ingress behaves as
// repeated Deliver calls.
func TestHostDeliverBatch(t *testing.T) {
	h := NewHost("h", packet.IPv4Addr{10, 0, 0, 1})
	var got []uint16
	h.OnUDP = func(_ packet.IPv4Addr, srcPort, _ uint16, _ []byte) {
		got = append(got, srcPort)
	}
	mk := func(sp uint16) []byte {
		b := packet.NewBuffer(64)
		udp := packet.UDP{SrcPort: sp, DstPort: 9}
		src := packet.IPv4Addr{10, 0, 0, 2}
		udp.SerializeToWithChecksum(b, src, h.IP)
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: h.IP}
		ip.SerializeTo(b)
		eth := packet.Ethernet{Dst: h.MAC, Src: packet.MAC{2}, EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(b)
		return append([]byte(nil), b.Bytes()...)
	}
	h.DeliverBatch([][]byte{mk(1), mk(2), mk(3)})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("UDP batch = %v", got)
	}
	if h.RxFrames.Load() != 3 {
		t.Errorf("rx frames = %d", h.RxFrames.Load())
	}
}

// TestNetworkBurstModeEndToEnd builds the flood network with burst-mode
// links and host uplinks and runs the same end-to-end ping the
// per-frame emulation runs: the batched datapath must be semantically
// invisible.
func TestNetworkBurstModeEndToEnd(t *testing.T) {
	g := topo.Linear(3, 1000)
	n := Build(g, Config{Link: PipeConfig{BurstSize: 8}})
	for _, sw := range n.Switches {
		sw.Process(&zof.FlowMod{
			Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 1,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(zof.PortFlood)},
		}, 1, func(zof.Message, uint32) {})
	}
	h1, err := n.AttachHost("h1", 1, packet.IPv4Addr{10, 0, 0, 1}, PipeConfig{BurstSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.AttachHost("h2", 3, packet.IPv4Addr{10, 0, 0, 2}, PipeConfig{BurstSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := h1.Ping(ctx, h2.IP); err != nil {
		t.Fatalf("ping across burst-mode network: %v", err)
	}
	// UDP both ways keeps the batch path honest on payload traffic too.
	doneCh := make(chan struct{})
	h2.OnUDP = func(packet.IPv4Addr, uint16, uint16, []byte) { close(doneCh) }
	h1.SendUDP(h2.IP, 1234, 5678, []byte("burst"))
	select {
	case <-doneCh:
	case <-time.After(3 * time.Second):
		t.Fatal("UDP never crossed the burst-mode network")
	}
}
