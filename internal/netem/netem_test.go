package netem

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

func TestPipeDelivery(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{}, func(data []byte) { got.Add(uint64(len(data))) })
	defer p.Close()
	for i := 0; i < 10; i++ {
		if !p.Send([]byte("12345")) {
			t.Fatal("send failed")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 50 {
		t.Fatalf("delivered %d bytes", got.Load())
	}
	if p.Sent.Load() != 10 || p.Dropped.Load() != 0 {
		t.Errorf("stats = %d/%d", p.Sent.Load(), p.Dropped.Load())
	}
}

func TestPipeLossAll(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{LossProb: 1.0}, func([]byte) { got.Add(1) })
	defer p.Close()
	for i := 0; i < 20; i++ {
		p.Send([]byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatalf("lossy pipe delivered %d", got.Load())
	}
	if p.Dropped.Load() != 20 {
		t.Errorf("dropped = %d", p.Dropped.Load())
	}
}

func TestPipeLossPartial(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{LossProb: 0.5, Seed: 3, QueueLen: 2048}, func([]byte) { got.Add(1) })
	defer p.Close()
	for i := 0; i < 1000; i++ {
		p.Send([]byte("x"))
	}
	p.Drain()
	n := got.Load()
	if n < 350 || n > 650 {
		t.Fatalf("50%% loss delivered %d of 1000", n)
	}
}

func TestPipeQueueOverflow(t *testing.T) {
	block := make(chan struct{})
	p := NewPipe(PipeConfig{QueueLen: 4}, func([]byte) { <-block })
	defer p.Close()
	defer close(block)
	sent := 0
	for i := 0; i < 50; i++ {
		if p.Send([]byte("x")) {
			sent++
		}
	}
	// Queue (4) plus at most one in the pump.
	if sent > 6 {
		t.Fatalf("accepted %d frames into a 4-deep queue", sent)
	}
	if p.Dropped.Load() == 0 {
		t.Error("no drops recorded")
	}
}

func TestPipeDown(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{}, func([]byte) { got.Add(1) })
	defer p.Close()
	p.SetDown(true)
	if p.Send([]byte("x")) {
		t.Fatal("send on down pipe accepted")
	}
	p.SetDown(false)
	if !p.Send([]byte("x")) {
		t.Fatal("send after restore failed")
	}
	p.Drain()
	if got.Load() != 1 {
		t.Fatalf("delivered %d", got.Load())
	}
}

func TestPipeRateShaping(t *testing.T) {
	// 4 Mbps = 500 KB/s. 100 frames x 1000 B = 100 KB ~ 200 ms on the
	// wire (minus one MTU of burst).
	var got atomic.Uint64
	done := make(chan struct{})
	p := NewPipe(PipeConfig{RateMbps: 4, QueueLen: 256}, func(data []byte) {
		if got.Add(uint64(len(data))) >= 100*1000 {
			select {
			case <-done:
			default:
				close(done)
			}
		}
	})
	defer p.Close()
	frame := bytes.Repeat([]byte{1}, 1000)
	start := time.Now()
	for i := 0; i < 100; i++ {
		if !p.Send(frame) {
			t.Fatal("send dropped")
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d bytes delivered", got.Load())
	}
	elapsed := time.Since(start)
	// Lower bound: strictly slower than instantaneous; allow generous
	// slack above for CI scheduling.
	if elapsed < 120*time.Millisecond {
		t.Fatalf("100KB at 4Mbps took only %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shaping far too slow: %v", elapsed)
	}
}

func TestPipeUnshapedIsFast(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{QueueLen: 1024}, func(data []byte) { got.Add(1) })
	defer p.Close()
	for i := 0; i < 500; i++ {
		p.Send([]byte("x"))
	}
	p.Drain()
	if got.Load() != 500 {
		t.Fatalf("delivered %d", got.Load())
	}
}

func TestPipeDelay(t *testing.T) {
	done := make(chan struct{})
	p := NewPipe(PipeConfig{Delay: 30 * time.Millisecond}, func([]byte) { close(done) })
	defer p.Close()
	start := time.Now()
	p.Send([]byte("x"))
	<-done
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 30ms", el)
	}
}

// wireHosts joins two hosts back to back.
func wireHosts(t *testing.T, a, b *Host) (cleanup func()) {
	t.Helper()
	ab := NewPipe(PipeConfig{}, b.Deliver)
	ba := NewPipe(PipeConfig{}, a.Deliver)
	a.SetTx(ab.Send)
	b.SetTx(ba.Send)
	return func() { ab.Close(); ba.Close() }
}

func TestHostPing(t *testing.T) {
	h1 := NewHost("h1", packet.IPv4Addr{10, 0, 0, 1})
	h2 := NewHost("h2", packet.IPv4Addr{10, 0, 0, 2})
	defer wireHosts(t, h1, h2)()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rtt, err := h1.Ping(ctx, h2.IP)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	// Second ping uses the ARP cache (no new broadcast) and still works.
	if _, err := h1.Ping(ctx, h2.IP); err != nil {
		t.Fatalf("second ping: %v", err)
	}
}

func TestHostPingTimeout(t *testing.T) {
	h1 := NewHost("h1", packet.IPv4Addr{10, 0, 0, 1})
	h2 := NewHost("h2", packet.IPv4Addr{10, 0, 0, 2})
	defer wireHosts(t, h1, h2)()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// 10.0.0.9 does not exist; ARP never resolves.
	if _, err := h1.Ping(ctx, packet.IPv4Addr{10, 0, 0, 9}); err == nil {
		t.Fatal("ping to ghost succeeded")
	}
}

func TestHostUDP(t *testing.T) {
	h1 := NewHost("h1", packet.IPv4Addr{10, 0, 0, 1})
	h2 := NewHost("h2", packet.IPv4Addr{10, 0, 0, 2})
	defer wireHosts(t, h1, h2)()

	type dgram struct {
		src     packet.IPv4Addr
		sp, dp  uint16
		payload string
	}
	got := make(chan dgram, 1)
	h2.OnUDP = func(src packet.IPv4Addr, sp, dp uint16, payload []byte) {
		got <- dgram{src, sp, dp, string(payload)}
	}
	h1.SendUDP(h2.IP, 1234, 5678, []byte("datagram"))
	select {
	case d := <-got:
		if d.src != h1.IP || d.sp != 1234 || d.dp != 5678 || d.payload != "datagram" {
			t.Fatalf("got %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("UDP not delivered")
	}
	if h2.RxUDP.Load() != 1 {
		t.Errorf("RxUDP = %d", h2.RxUDP.Load())
	}
}

func TestHostIgnoresForeignUnicast(t *testing.T) {
	h1 := NewHost("h1", packet.IPv4Addr{10, 0, 0, 1})
	hit := false
	h1.OnUDP = func(packet.IPv4Addr, uint16, uint16, []byte) { hit = true }
	// Build a frame addressed to a different MAC.
	b := packet.NewBuffer(64)
	udp := packet.UDP{SrcPort: 1, DstPort: 2}
	udp.SerializeTo(b)
	ip := packet.IPv4{TTL: 4, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 2}, Dst: h1.IP}
	ip.SerializeTo(b)
	// 08:... keeps both the group bit and broadcast clear.
	eth := packet.Ethernet{Dst: packet.MAC{8, 9, 9, 9, 9, 9}, Src: packet.MAC{1},
		EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	h1.Deliver(b.Bytes())
	if hit {
		t.Fatal("host accepted frame for foreign MAC")
	}
}

// buildFloodNet builds a linear 3-switch network with static flood
// rules (no controller) and two hosts at the ends.
func buildFloodNet(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	g := topo.Linear(3, 1000)
	n := Build(g, Config{})
	for _, sw := range n.Switches {
		sw.Process(&zof.FlowMod{
			Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 1,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(zof.PortFlood)},
		}, 1, func(zof.Message, uint32) {})
	}
	h1, err := n.AttachHost("h1", 1, packet.IPv4Addr{10, 0, 0, 1}, PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.AttachHost("h2", 3, packet.IPv4Addr{10, 0, 0, 2}, PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, h1, h2
}

func TestNetworkEndToEndPing(t *testing.T) {
	_, h1, h2 := buildFloodNet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	rtt, err := h1.Ping(ctx, h2.IP)
	if err != nil {
		t.Fatalf("ping across 3 switches: %v", err)
	}
	t.Logf("rtt = %v", rtt)
}

func TestNetworkFailLink(t *testing.T) {
	n, h1, h2 := buildFloodNet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := h1.Ping(ctx, h2.IP); err != nil {
		t.Fatalf("baseline ping: %v", err)
	}
	key := topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}
	if err := n.FailLink(key); err != nil {
		t.Fatal(err)
	}
	short, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	if _, err := h1.Ping(short, h2.IP); err == nil {
		t.Fatal("ping succeeded across failed link")
	}
	if err := n.RestoreLink(key); err != nil {
		t.Fatal(err)
	}
	ctx3, cancel3 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel3()
	if _, err := h1.Ping(ctx3, h2.IP); err != nil {
		t.Fatalf("ping after restore: %v", err)
	}
	ab, _, _, _, err := n.LinkStats(key)
	if err != nil || ab == 0 {
		t.Errorf("link stats = %d, %v", ab, err)
	}
}

func TestNetworkDuplicateHost(t *testing.T) {
	g := topo.Linear(2, 100)
	n := Build(g, Config{})
	defer n.Stop()
	if _, err := n.AttachHost("h", 1, packet.IPv4Addr{10, 0, 0, 1}, PipeConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachHost("h", 1, packet.IPv4Addr{10, 0, 0, 2}, PipeConfig{}); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := n.AttachHost("x", 99, packet.IPv4Addr{10, 0, 0, 3}, PipeConfig{}); err == nil {
		t.Fatal("attach to missing switch accepted")
	}
	// Attachment bookkeeping.
	at, ok := n.Attachment("h")
	if !ok || at.Switch != 1 || at.Port != 2 {
		t.Errorf("attachment = %+v ok=%v", at, ok)
	}
	if len(n.Hosts()) != 1 {
		t.Errorf("hosts = %v", n.Hosts())
	}
}

func TestNetworkHostPortsDoNotCollide(t *testing.T) {
	g := topo.Linear(2, 100)
	n := Build(g, Config{})
	defer n.Stop()
	// Switch 1 has one inter-switch link on port 1; hosts get 2, 3, ...
	for i, name := range []string{"a", "b", "c"} {
		_, err := n.AttachHost(name, 1, packet.IPv4Addr{10, 0, 0, byte(i + 1)}, PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		at, _ := n.Attachment(name)
		if at.Port != uint32(i+2) {
			t.Errorf("host %s on port %d, want %d", name, at.Port, i+2)
		}
	}
}
