package netem

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// Host is an emulated end system with a minimal stack: it answers ARP
// for its address, answers ICMP echo, delivers UDP to a callback, and
// can originate pings and UDP datagrams with ARP resolution.
type Host struct {
	Name string
	MAC  packet.MAC
	IP   packet.IPv4Addr

	mu       sync.Mutex
	tx       func([]byte) bool // toward the attached switch
	arp      map[packet.IPv4Addr]packet.MAC
	pending  map[packet.IPv4Addr][]func(packet.MAC) // sends awaiting resolution
	pingID   uint16
	pingSeq  uint16
	pingWait map[pingKey]chan struct{}

	// OnUDP, when set, receives every UDP datagram addressed to the
	// host. Called without the host lock.
	OnUDP func(src packet.IPv4Addr, srcPort, dstPort uint16, payload []byte)

	RxFrames atomic.Uint64
	RxUDP    atomic.Uint64
	RxBytes  atomic.Uint64
}

type pingKey struct {
	ip  packet.IPv4Addr
	id  uint16
	seq uint16
}

// NewHost builds a host; the MAC derives from the IP for readability.
func NewHost(name string, ip packet.IPv4Addr) *Host {
	return &Host{
		Name:     name,
		MAC:      packet.MACFromUint64(0x020000000000 | uint64(ip.Uint32())),
		IP:       ip,
		arp:      make(map[packet.IPv4Addr]packet.MAC),
		pending:  make(map[packet.IPv4Addr][]func(packet.MAC)),
		pingWait: make(map[pingKey]chan struct{}),
	}
}

// SetTx wires the host's uplink. tx must not retain the frame past
// the call.
func (h *Host) SetTx(tx func([]byte) bool) {
	h.mu.Lock()
	h.tx = tx
	h.mu.Unlock()
}

func (h *Host) send(data []byte) {
	h.mu.Lock()
	tx := h.tx
	h.mu.Unlock()
	if tx != nil {
		tx(data)
	}
}

// DeliverBatch is the host's wire ingress for batch pipes: frames are
// processed in arrival order, exactly as len(frames) Deliver calls.
// Hosts terminate traffic rather than switching it, so there is no
// lookup to amortize — the batch form exists so a burst-mode link can
// end at a host without an adapter.
func (h *Host) DeliverBatch(frames [][]byte) {
	for _, data := range frames {
		h.Deliver(data)
	}
}

// Deliver is the host's wire ingress.
func (h *Host) Deliver(data []byte) {
	h.RxFrames.Add(1)
	h.RxBytes.Add(uint64(len(data)))
	var f packet.Frame
	if err := packet.Decode(data, &f); err != nil {
		return
	}
	// Only accept frames for us or broadcast/multicast.
	if f.Eth.Dst != h.MAC && !f.Eth.Dst.IsBroadcast() && !f.Eth.Dst.IsMulticast() {
		return
	}
	switch {
	case f.Has(packet.LayerARP):
		h.handleARP(&f.ARP)
	case f.Has(packet.LayerICMPv4):
		h.handleICMP(&f)
	case f.Has(packet.LayerUDP):
		if f.IPv4.Dst != h.IP {
			return
		}
		h.RxUDP.Add(1)
		h.learn(f.IPv4.Src, f.Eth.Src)
		if cb := h.OnUDP; cb != nil {
			cb(f.IPv4.Src, f.UDP.SrcPort, f.UDP.DstPort, append([]byte(nil), f.Payload...))
		}
	}
}

func (h *Host) handleARP(a *packet.ARP) {
	h.learn(a.SenderIP, a.SenderHW)
	if a.Op == packet.ARPRequest && a.TargetIP == h.IP {
		eth, rep := packet.NewARPReply(h.MAC, h.IP, a)
		h.send(marshalARP(eth, rep))
	}
}

func (h *Host) handleICMP(f *packet.Frame) {
	if f.IPv4.Dst != h.IP {
		return
	}
	h.learn(f.IPv4.Src, f.Eth.Src)
	switch f.ICMP.Type {
	case packet.ICMPv4EchoRequest:
		h.sendICMP(f.Eth.Src, f.IPv4.Src, packet.ICMPv4EchoReply, f.ICMP.ID, f.ICMP.Seq, f.Payload)
	case packet.ICMPv4EchoReply:
		h.mu.Lock()
		key := pingKey{f.IPv4.Src, f.ICMP.ID, f.ICMP.Seq}
		ch, ok := h.pingWait[key]
		if ok {
			delete(h.pingWait, key)
		}
		h.mu.Unlock()
		if ok {
			close(ch)
		}
	}
}

// SeedARP installs a static ARP entry, the emulation counterpart of
// `arp -s`: useful when a scenario installs purely proactive rules and
// must not rely on broadcast resolution.
func (h *Host) SeedARP(ip packet.IPv4Addr, mac packet.MAC) {
	h.learn(ip, mac)
}

// learn records an IP-to-MAC binding and releases queued sends.
func (h *Host) learn(ip packet.IPv4Addr, mac packet.MAC) {
	h.mu.Lock()
	h.arp[ip] = mac
	waiters := h.pending[ip]
	delete(h.pending, ip)
	h.mu.Unlock()
	for _, w := range waiters {
		w(mac)
	}
}

// resolve runs fn with the MAC for ip, ARPing first if unknown. The
// request is retransmitted every 100ms (up to 30 times) while the
// resolution is outstanding, like a real host's ARP cache — the first
// request of a fresh flow often races reactive rule installation.
func (h *Host) resolve(ip packet.IPv4Addr, fn func(packet.MAC)) {
	h.mu.Lock()
	if mac, ok := h.arp[ip]; ok {
		h.mu.Unlock()
		fn(mac)
		return
	}
	first := len(h.pending[ip]) == 0
	h.pending[ip] = append(h.pending[ip], fn)
	h.mu.Unlock()
	eth, req := packet.NewARPRequest(h.MAC, h.IP, ip)
	h.send(marshalARP(eth, req))
	if !first {
		return
	}
	go func() {
		for i := 0; i < 30; i++ {
			time.Sleep(100 * time.Millisecond)
			h.mu.Lock()
			outstanding := len(h.pending[ip]) > 0
			h.mu.Unlock()
			if !outstanding {
				return
			}
			h.send(marshalARP(eth, req))
		}
	}()
}

func marshalARP(eth packet.Ethernet, arp packet.ARP) []byte {
	b := packet.NewBuffer(64)
	arp.SerializeTo(b)
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// txPool holds the buffers datagrams and echoes are serialized into;
// tx keeps no frame, so a buffer goes back as soon as tx returns.
var txPool = sync.Pool{New: func() any { return packet.NewBuffer(64) }}

// SendUDP transmits a datagram to dst: with dst's MAC known, from a
// pooled buffer with nothing allocated, else once resolve learns it.
func (h *Host) SendUDP(dst packet.IPv4Addr, srcPort, dstPort uint16, payload []byte) {
	h.mu.Lock()
	mac, known := h.arp[dst]
	h.mu.Unlock()
	if !known {
		data := append([]byte(nil), payload...)
		h.resolve(dst, func(packet.MAC) { h.SendUDP(dst, srcPort, dstPort, data) })
		return
	}
	b := txPool.Get().(*packet.Buffer)
	b.Reset()
	b.AppendBytes(payload)
	udp := packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	udp.SerializeToWithChecksum(b, h.IP, dst)
	h.sendIPv4(b, mac, dst, packet.ProtoUDP)
}

func (h *Host) sendICMP(mac packet.MAC, dst packet.IPv4Addr, typ uint8, id, seq uint16, payload []byte) {
	b := txPool.Get().(*packet.Buffer)
	b.Reset()
	b.AppendBytes(payload)
	ic := packet.ICMPv4{Type: typ, ID: id, Seq: seq}
	ic.SerializeTo(b)
	h.sendIPv4(b, mac, dst, packet.ProtoICMP)
}

// sendIPv4 wraps b in IPv4 and Ethernet, sends it and pools b again.
func (h *Host) sendIPv4(b *packet.Buffer, mac packet.MAC, dst packet.IPv4Addr, proto uint8) {
	ip := packet.IPv4{TTL: 64, Protocol: proto, Src: h.IP, Dst: dst}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: mac, Src: h.MAC, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	h.send(b.Bytes())
	txPool.Put(b)
}

// Ping sends one ICMP echo request to dst and waits for the reply,
// returning the round-trip time.
func (h *Host) Ping(ctx context.Context, dst packet.IPv4Addr) (time.Duration, error) {
	h.mu.Lock()
	h.pingID++
	h.pingSeq++
	id, seq := h.pingID, h.pingSeq
	ch := make(chan struct{})
	key := pingKey{dst, id, seq}
	h.pingWait[key] = ch
	h.mu.Unlock()

	start := time.Now()
	h.resolve(dst, func(mac packet.MAC) { h.sendICMP(mac, dst, packet.ICMPv4EchoRequest, id, seq, []byte("zen-ping")) })

	select {
	case <-ch:
		return time.Since(start), nil
	case <-ctx.Done():
		h.mu.Lock()
		delete(h.pingWait, key)
		h.mu.Unlock()
		return 0, fmt.Errorf("ping %v: %w", dst, ctx.Err())
	}
}
