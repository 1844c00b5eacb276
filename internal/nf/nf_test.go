package nf

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
)

// testMem is a plain-allocating Mem for exercising stages outside the
// datapath's pooled execution.
type testMem struct{}

func (testMem) EnsureOwned(data []byte) []byte {
	return append([]byte(nil), data...)
}
func (testMem) Grow(data []byte, head int) []byte {
	out := make([]byte, len(data)+head)
	copy(out[head:], data)
	return out
}
func (testMem) Shrink(data []byte, off int) []byte {
	return append([]byte(nil), data[off:]...)
}

var (
	tHostA = packet.IPv4Addr{10, 0, 0, 1}
	tHostB = packet.IPv4Addr{10, 0, 0, 2}
	tPub   = packet.IPv4Addr{203, 0, 113, 1}
)

func udpFrame(t testing.TB, src, dst packet.IPv4Addr, sp, dp uint16, payload string) []byte {
	t.Helper()
	b := packet.NewBuffer(64)
	b.AppendBytes([]byte(payload))
	udp := packet.UDP{SrcPort: sp, DstPort: dp}
	udp.SerializeToWithChecksum(b, src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ip.SerializeTo(b)
	eth := packet.Ethernet{
		Dst:       packet.MACFromUint64(uint64(dst.Uint32())),
		Src:       packet.MACFromUint64(uint64(src.Uint32())),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// pkt wraps data as a stage packet at the given instant.
func pkt(t testing.TB, data []byte, now time.Time) *Packet {
	t.Helper()
	f := &packet.Frame{}
	if err := packet.Decode(data, f); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &Packet{InPort: 1, Data: data, Frame: f, Mem: testMem{}, Now: now}
}

// run1 drives st over p and returns the verdict.
func run1(st Stage, p *Packet) Verdict {
	st.Process(p)
	return p.Verdict
}

func TestConntrackBidirectional(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	t0 := time.Unix(100, 0)

	orig := pkt(t, udpFrame(t, tHostA, tHostB, 4242, 80, "syn"), t0)
	if v := run1(ct, orig); v != VerdictContinue {
		t.Fatalf("verdict = %v", v)
	}
	if ct.Entries() != 1 {
		t.Fatalf("entries = %d", ct.Entries())
	}
	conns := ct.Conns(t0)
	if len(conns) != 1 || conns[0].State != "new" {
		t.Fatalf("conns = %+v", conns)
	}
	if want := "udp 10.0.0.1:4242>10.0.0.2:80"; conns[0].Tuple != want {
		t.Errorf("tuple = %q, want %q", conns[0].Tuple, want)
	}

	// The reply direction lands on the same entry and establishes it.
	reply := pkt(t, udpFrame(t, tHostB, tHostA, 80, 4242, "ack"), t0.Add(time.Millisecond))
	run1(ct, reply)
	if ct.Entries() != 1 {
		t.Fatalf("entries after reply = %d", ct.Entries())
	}
	conns = ct.Conns(t0.Add(time.Millisecond))
	if conns[0].State != "established" || conns[0].Packets != 2 {
		t.Fatalf("conns after reply = %+v", conns)
	}

	s := ct.StateSummary()
	if s.Entries != 1 || s.Counters["created"] != 1 || s.Counters["hits"] != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestConntrackExpirySweep(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: 50 * time.Millisecond})
	t0 := time.Unix(100, 0)
	run1(ct, pkt(t, udpFrame(t, tHostA, tHostB, 1, 2, "a"), t0))
	run1(ct, pkt(t, udpFrame(t, tHostB, tHostA, 9, 9, "b"), t0.Add(40*time.Millisecond)))

	// Within the horizon nothing expires.
	if removed, _ := ct.Sweep(t0.Add(45 * time.Millisecond)); removed != 0 {
		t.Fatalf("early sweep removed %d", removed)
	}
	// 70ms: the first entry is 20ms past its deadline, the second safe.
	removed, maxLag := ct.Sweep(t0.Add(70 * time.Millisecond))
	if removed != 1 || ct.Entries() != 1 {
		t.Fatalf("removed %d entries=%d", removed, ct.Entries())
	}
	if maxLag != 20*time.Millisecond {
		t.Errorf("maxLag = %v", maxLag)
	}
	if lagMax, lagAvg := ct.ExpiryLag(); lagMax != 20*time.Millisecond || lagAvg != 20*time.Millisecond {
		t.Errorf("ExpiryLag = %v, %v", lagMax, lagAvg)
	}
	if s := ct.StateSummary(); s.Counters["expired"] != 1 {
		t.Errorf("expired = %d", s.Counters["expired"])
	}
}

func TestConntrackMaxConnsPassesUntracked(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute, MaxConns: 1})
	t0 := time.Unix(100, 0)
	run1(ct, pkt(t, udpFrame(t, tHostA, tHostB, 1, 2, "a"), t0))
	if v := run1(ct, pkt(t, udpFrame(t, tHostA, tHostB, 3, 4, "b"), t0)); v != VerdictContinue {
		t.Fatalf("overflow verdict = %v, want continue (fail open)", v)
	}
	if ct.Entries() != 1 {
		t.Fatalf("entries = %d", ct.Entries())
	}
	if s := ct.StateSummary(); s.Counters["full"] != 1 {
		t.Errorf("full = %d", s.Counters["full"])
	}
}

func TestConntrackExplainCreatesNothing(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	p := pkt(t, udpFrame(t, tHostA, tHostB, 1, 2, "x"), time.Unix(100, 0))
	p.Explain = true
	run1(ct, p)
	if ct.Entries() != 0 {
		t.Fatalf("explain created an entry")
	}
	if p.Note == "" {
		t.Error("explain left no note")
	}
	if s := ct.StateSummary(); s.Counters["created"] != 0 || s.Counters["hits"] != 0 {
		t.Errorf("explain moved counters: %+v", s)
	}
}

func TestNATTranslatesBothWays(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub, PortLo: 30000, PortHi: 30010})
	t0 := time.Unix(100, 0)

	// Outbound: conntrack first (owns the entry), then NAT.
	out := pkt(t, udpFrame(t, tHostA, tHostB, 4242, 80, "req"), t0)
	run1(ct, out)
	if v := run1(nat, out); v != VerdictContinue {
		t.Fatalf("outbound verdict = %v", v)
	}
	if out.Frame.IPv4.Src != tPub {
		t.Fatalf("src not translated: %v", out.Frame.IPv4.Src)
	}
	natPort := out.Frame.UDP.SrcPort
	if natPort < 30000 || natPort > 30010 {
		t.Fatalf("nat port = %d", natPort)
	}
	if nat.Bindings() != 1 {
		t.Fatalf("bindings = %d", nat.Bindings())
	}
	// The binding shows up on the conntrack entry's introspection row.
	if conns := ct.Conns(t0); len(conns) != 1 || conns[0].NAT == "" {
		t.Fatalf("conns = %+v", conns)
	}

	// Inbound: reply addressed to the public endpoint comes back to the
	// private host, and keeps the entry alive (established).
	in := pkt(t, udpFrame(t, tHostB, tPub, 80, natPort, "resp"), t0.Add(time.Millisecond))
	if v := run1(nat, in); v != VerdictContinue {
		t.Fatalf("inbound verdict = %v", v)
	}
	if in.Frame.IPv4.Dst != tHostA || in.Frame.UDP.DstPort != 4242 {
		t.Fatalf("inbound rewrite = %v:%d", in.Frame.IPv4.Dst, in.Frame.UDP.DstPort)
	}
	if conns := ct.Conns(t0.Add(time.Millisecond)); conns[0].State != "established" {
		t.Fatalf("conn not established by reply: %+v", conns[0])
	}

	// Inbound to an unbound port is refused.
	stray := pkt(t, udpFrame(t, tHostB, tPub, 80, 31000, "stray"), t0)
	if v := run1(nat, stray); v != VerdictDrop {
		t.Fatalf("stray verdict = %v", v)
	}
	s := nat.StateSummary()
	if s.Counters["translated"] != 1 || s.Counters["inbound"] != 1 || s.Counters["refused"] != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestNATRequiresConntrackEntry(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub})
	p := pkt(t, udpFrame(t, tHostA, tHostB, 1, 2, "x"), time.Unix(100, 0))
	if v := run1(nat, p); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop for untracked flow", v)
	}
	if s := nat.StateSummary(); s.Counters["unbound"] != 1 {
		t.Errorf("unbound = %d", s.Counters["unbound"])
	}
}

func TestNATPortExhaustionAndRelease(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: 50 * time.Millisecond})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub, PortLo: 20000, PortHi: 20001})
	t0 := time.Unix(100, 0)

	send := func(sp uint16, at time.Time) Verdict {
		p := pkt(t, udpFrame(t, tHostA, tHostB, sp, 80, "x"), at)
		run1(ct, p)
		return run1(nat, p)
	}
	if send(1, t0) != VerdictContinue || send(2, t0) != VerdictContinue {
		t.Fatal("pool-backed connections dropped")
	}
	// Third connection: pool empty, frame dropped, conn stays (conntrack
	// is independent of NAT success).
	if send(3, t0) != VerdictDrop {
		t.Fatal("exhausted pool did not drop")
	}
	if s := nat.StateSummary(); s.Counters["exhausted"] != 1 || s.Entries != 2 {
		t.Fatalf("summary = %+v", s)
	}

	// Expiry releases the bindings back to the pool via the conntrack
	// hook; a fresh connection can allocate again.
	ct.Sweep(t0.Add(time.Second))
	if nat.Bindings() != 0 {
		t.Fatalf("bindings after expiry = %d", nat.Bindings())
	}
	if s := nat.StateSummary(); s.Counters["released"] != 2 {
		t.Fatalf("released = %d", s.Counters["released"])
	}
	if send(4, t0.Add(2*time.Second)) != VerdictContinue {
		t.Fatal("allocation after release failed")
	}
}

func TestNATExplainAllocatesNothing(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub})
	t0 := time.Unix(100, 0)
	live := pkt(t, udpFrame(t, tHostA, tHostB, 7, 80, "x"), t0)
	run1(ct, live) // entry exists, no binding yet

	p := pkt(t, udpFrame(t, tHostA, tHostB, 7, 80, "x"), t0)
	p.Explain = true
	if v := run1(nat, p); v != VerdictContinue {
		t.Fatalf("explain verdict = %v", v)
	}
	if nat.Bindings() != 0 {
		t.Fatal("explain allocated a binding")
	}
	if p.Note == "" {
		t.Error("explain left no note")
	}
}

func TestTunnelRoundTrip(t *testing.T) {
	cfg := TunnelConfig{
		VNI:       42,
		LocalIP:   packet.IPv4Addr{172, 16, 0, 1},
		RemoteIP:  packet.IPv4Addr{172, 16, 0, 2},
		LocalMAC:  packet.MACFromUint64(0x020000000001),
		RemoteMAC: packet.MACFromUint64(0x020000000002),
	}
	enc, dec := NewTunnelEncap(cfg), NewTunnelDecap(cfg)
	inner := udpFrame(t, tHostA, tHostB, 4242, 80, "payload")
	t0 := time.Unix(100, 0)

	p := pkt(t, append([]byte(nil), inner...), t0)
	if v := run1(enc, p); v != VerdictContinue {
		t.Fatalf("encap verdict = %v", v)
	}
	if len(p.Data) != len(inner)+TunnelOverhead {
		t.Fatalf("outer len = %d, want %d", len(p.Data), len(inner)+TunnelOverhead)
	}
	// The decoded view must describe the outer packet.
	f := p.Frame
	if f.IPv4.Src != cfg.LocalIP || f.IPv4.Dst != cfg.RemoteIP {
		t.Fatalf("outer ips = %v -> %v", f.IPv4.Src, f.IPv4.Dst)
	}
	if !f.Has(packet.LayerUDP) || f.UDP.DstPort != DefaultVXLANPort {
		t.Fatalf("outer udp = %+v", f.UDP)
	}
	if f.UDP.SrcPort < 49152 {
		t.Errorf("outer src port %d not in the entropy range", f.UDP.SrcPort)
	}
	entropyPort := f.UDP.SrcPort

	// Decap restores the exact inner bytes.
	if v := run1(dec, p); v != VerdictContinue {
		t.Fatalf("decap verdict = %v", v)
	}
	if !bytes.Equal(p.Data, inner) {
		t.Fatal("decap did not restore the inner frame")
	}
	if p.Frame.IPv4.Dst != tHostB {
		t.Fatalf("inner view = %+v", p.Frame.IPv4)
	}

	// Same inner flow -> same outer source port (stable ECMP entropy).
	q := pkt(t, append([]byte(nil), inner...), t0)
	run1(enc, q)
	if q.Frame.UDP.SrcPort != entropyPort {
		t.Errorf("entropy port unstable: %d then %d", entropyPort, q.Frame.UDP.SrcPort)
	}
}

func TestTunnelDecapRejectsForeignFrames(t *testing.T) {
	cfg := TunnelConfig{VNI: 42, LocalIP: packet.IPv4Addr{172, 16, 0, 1},
		RemoteIP: packet.IPv4Addr{172, 16, 0, 2}}
	dec := NewTunnelDecap(cfg)
	t0 := time.Unix(100, 0)

	// Plain UDP to another port is not this tunnel's traffic.
	if v := run1(dec, pkt(t, udpFrame(t, tHostA, tHostB, 1, 80, "x"), t0)); v != VerdictDrop {
		t.Fatalf("non-vxlan verdict = %v", v)
	}
	// A valid encap under a different VNI is rejected too.
	other := NewTunnelEncap(TunnelConfig{VNI: 7, LocalIP: cfg.LocalIP, RemoteIP: cfg.RemoteIP})
	p := pkt(t, udpFrame(t, tHostA, tHostB, 1, 80, "x"), t0)
	run1(other, p)
	if v := run1(dec, p); v != VerdictDrop {
		t.Fatalf("wrong-vni verdict = %v", v)
	}
	s := dec.StateSummary()
	if s.Counters["not_vxlan"] != 1 || s.Counters["bad_vni"] != 1 {
		t.Errorf("summary = %+v", s)
	}
}

// udp6Frame builds an IPv6/UDP frame whose addresses are all ones, so
// bytes misread as a VXLAN header carry the VNI flag and VNI 0xffffff.
func udp6Frame(dp uint16, payload []byte) []byte {
	var ones packet.IPv6Addr
	for i := range ones {
		ones[i] = 0xff
	}
	b := packet.NewBuffer(64)
	b.AppendBytes(payload)
	udp := packet.UDP{SrcPort: 0x1234, DstPort: dp}
	udp.SerializeTo(b)
	ip := packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: ones, Dst: ones}
	ip.SerializeTo(b)
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv6}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// TestTunnelDecapIgnoresStaleIPv4View: the datapath reuses one pooled
// packet.Frame across decodes, so after an IPv4 frame the IPv4 fields
// are left over when an IPv6 frame is decoded into it. Decap must gate
// on the layer bit, not read offsets out of the stale header.
func TestTunnelDecapIgnoresStaleIPv4View(t *testing.T) {
	dec := NewTunnelDecap(TunnelConfig{VNI: 0xffffff})
	f := &packet.Frame{}
	if err := packet.Decode(udpFrame(t, tHostA, tHostB, 1, 80, "first"), f); err != nil {
		t.Fatal(err)
	}
	data := udp6Frame(DefaultVXLANPort, make([]byte, 64))
	if err := packet.Decode(data, f); err != nil {
		t.Fatal(err)
	}
	if f.Has(packet.LayerIPv4) || !f.Has(packet.LayerUDP) {
		t.Fatalf("fixture layers = %b", f.Layers)
	}
	orig := append([]byte(nil), data...)
	p := &Packet{InPort: 1, Data: data, Frame: f, Mem: testMem{}, Now: time.Unix(100, 0)}
	if v := run1(dec, p); v != VerdictDrop {
		t.Fatalf("IPv6/UDP:4789 verdict = %v, want drop", v)
	}
	if !bytes.Equal(p.Data, orig) {
		t.Error("decap touched the bytes of a frame it rejected")
	}
	if s := dec.StateSummary(); s.Counters["not_vxlan"] != 1 || s.Counters["bad_vni"] != 0 || s.Counters["decapped"] != 0 {
		t.Errorf("summary = %+v", s)
	}
}

// TestNATCountsUntrackedPerFrame: n untrackable frames pass and move
// the untracked counter by n.
func TestNATCountsUntrackedPerFrame(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub})
	var ps []*Packet
	for i := 0; i < 3; i++ {
		ps = append(ps, pkt(t, udp6Frame(80, []byte("v6")), time.Unix(100, 0)))
		nat.Process(ps[i])
	}
	for i, p := range ps {
		if p.Verdict != VerdictContinue {
			t.Errorf("packet %d verdict = %v", i, p.Verdict)
		}
	}
	if s := nat.StateSummary(); s.Counters["untracked"] != 3 {
		t.Errorf("untracked = %d, want 3", s.Counters["untracked"])
	}
}

// TestNATHandOffFallsBackToLookup pins when NAT may trust the entry the
// conntrack stage left on the packet: only when it is what a lookup in
// NAT's own conntrack would return for the packet as it is now. A
// rewrite between the stages, a sweep between the stages, and an entry
// from some other conntrack each send NAT back to the lookup.
func TestNATHandOffFallsBackToLookup(t *testing.T) {
	ct := NewConntrack(ConntrackConfig{Idle: time.Minute})
	nat := NewNAT(NATConfig{CT: ct, PublicIP: tPub})
	t0 := time.Unix(100, 0)
	unbound := func() uint64 { return nat.StateSummary().Counters["unbound"] }

	// A set-field action between nf:ct and nf:nat changes the source
	// port: the entry conntrack resolved is not this packet's any more,
	// and nothing tracks the new tuple.
	p := pkt(t, udpFrame(t, tHostA, tHostB, 1, 80, "x"), t0)
	run1(ct, p)
	p.Frame.SetL4Src(p.Data, 7)
	if v := run1(nat, p); v != VerdictDrop || unbound() != 1 || nat.Bindings() != 0 {
		t.Fatalf("rewritten to an untracked tuple: verdict %v, unbound %d, bindings %d; want the lookup's drop", v, unbound(), nat.Bindings())
	}
	// Once the new tuple is tracked, NAT binds that entry, not the one
	// handed over.
	q := pkt(t, udpFrame(t, tHostA, tHostB, 7, 80, "x"), t0)
	run1(ct, q)
	if run1(nat, q) != VerdictContinue {
		t.Fatal("tracked flow dropped")
	}
	p = pkt(t, udpFrame(t, tHostA, tHostB, 1, 80, "x"), t0)
	run1(ct, p)
	p.Frame.SetL4Src(p.Data, 7)
	if v := run1(nat, p); v != VerdictContinue || p.Frame.UDP.SrcPort != q.Frame.UDP.SrcPort || nat.Bindings() != 1 {
		t.Fatalf("rewritten to a tracked tuple: verdict %v, public port %d (its entry's is %d), bindings %d",
			v, p.Frame.UDP.SrcPort, q.Frame.UDP.SrcPort, nat.Bindings())
	}

	// Swept between the stages, bound or not: the port is back in the
	// pool and the frame is the drop a lookup makes it.
	for _, sp := range []uint16{7, 9} {
		p = pkt(t, udpFrame(t, tHostA, tHostB, sp, 80, "x"), t0)
		run1(ct, p)
		ct.Sweep(t0.Add(time.Hour))
		before := unbound()
		if v := run1(nat, p); v != VerdictDrop || unbound() != before+1 || nat.Bindings() != 0 {
			t.Fatalf("port %d swept between the stages: verdict %v, unbound +%d, bindings %d", sp, v, unbound()-before, nat.Bindings())
		}
	}

	// Tracked, but by a conntrack this NAT does not ride.
	other := NewConntrack(ConntrackConfig{Idle: time.Minute})
	p = pkt(t, udpFrame(t, tHostA, tHostB, 11, 80, "x"), t0)
	run1(other, p)
	if v := run1(nat, p); v != VerdictDrop || other.Entries() != 1 || nat.Bindings() != 0 {
		t.Fatalf("entry of a foreign conntrack: verdict %v, bindings %d", v, nat.Bindings())
	}
}
