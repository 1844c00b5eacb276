package packet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickCfg bounds the generator sizes so option slices stay within legal
// header limits.
var quickCfg = &quick.Config{MaxCount: 200}

func TestQuickEthernetRoundTrip(t *testing.T) {
	f := func(dst, src MAC, et uint16) bool {
		in := Ethernet{Dst: dst, Src: src, EtherType: et}
		b := NewBuffer(32)
		in.SerializeTo(b)
		var out Ethernet
		rest, err := out.DecodeFromBytes(b.Bytes())
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDot1QRoundTrip(t *testing.T) {
	f := func(prio uint8, drop bool, vid, et uint16) bool {
		in := Dot1Q{Priority: prio & 7, DropOK: drop, VLAN: vid & 0x0fff, EtherType: et}
		b := NewBuffer(16)
		in.SerializeTo(b)
		var out Dot1Q
		rest, err := out.DecodeFromBytes(b.Bytes())
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickARPRoundTrip(t *testing.T) {
	f := func(op uint16, shw, thw MAC, sip, tip IPv4Addr) bool {
		in := ARP{Op: op, SenderHW: shw, SenderIP: sip, TargetHW: thw, TargetIP: tip}
		b := NewBuffer(32)
		in.SerializeTo(b)
		var out ARP
		rest, err := out.DecodeFromBytes(b.Bytes())
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, flags uint8, frag uint16, ttl, proto uint8,
		src, dst IPv4Addr, payload []byte, nOpts uint8) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		opts := make([]byte, int(nOpts)%40&^3) // multiple of 4, < 40
		for i := range opts {
			opts[i] = byte(i)
		}
		in := IPv4{TOS: tos, ID: id, Flags: flags & 7, FragOffset: frag & 0x1fff,
			TTL: ttl, Protocol: proto, Src: src, Dst: dst, Options: opts}
		b := NewBuffer(64)
		b.AppendBytes(payload)
		in.SerializeTo(b)
		var out IPv4
		rest, err := out.DecodeFromBytes(b.Bytes())
		if err != nil || !bytes.Equal(rest, payload) {
			return false
		}
		if !out.VerifyChecksum(b.Bytes()) {
			return false
		}
		// Compare field-by-field; Options nil vs empty are equivalent.
		return out.TOS == in.TOS && out.ID == in.ID && out.Flags == in.Flags &&
			out.FragOffset == in.FragOffset && out.TTL == in.TTL &&
			out.Protocol == in.Protocol && out.Src == in.Src && out.Dst == in.Dst &&
			bytes.Equal(out.Options, in.Options)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIPv6RoundTrip(t *testing.T) {
	f := func(tc uint8, fl uint32, nh, hl uint8, src, dst IPv6Addr, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		in := IPv6{TrafficClass: tc, FlowLabel: fl & 0xfffff, NextHeader: nh,
			HopLimit: hl, Src: src, Dst: dst}
		b := NewBuffer(64)
		b.AppendBytes(payload)
		in.SerializeTo(b)
		var out IPv6
		rest, err := out.DecodeFromBytes(b.Bytes())
		if err != nil || !bytes.Equal(rest, payload) {
			return false
		}
		in.Length = uint16(len(payload))
		return out == in
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win, urg uint16,
		payload []byte, nOpts uint8) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		opts := make([]byte, int(nOpts)%20&^3)
		in := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags & 0x3f,
			Window: win, Urgent: urg, Options: opts}
		b := NewBuffer(64)
		b.AppendBytes(payload)
		in.SerializeTo(b)
		var out TCP
		rest, err := out.DecodeFromBytes(b.Bytes())
		if err != nil || !bytes.Equal(rest, payload) {
			return false
		}
		return out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Seq == in.Seq && out.Ack == in.Ack && out.Flags == in.Flags &&
			out.Window == in.Window && out.Urgent == in.Urgent &&
			bytes.Equal(out.Options, in.Options)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1200 {
			payload = payload[:1200]
		}
		in := UDP{SrcPort: sp, DstPort: dp}
		b := NewBuffer(32)
		b.AppendBytes(payload)
		in.SerializeTo(b)
		var out UDP
		rest, err := out.DecodeFromBytes(b.Bytes())
		return err == nil && bytes.Equal(rest, payload) &&
			out.SrcPort == sp && out.DstPort == dp &&
			out.Length == uint16(UDPHeaderLen+len(payload))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLLDPRoundTrip(t *testing.T) {
	f := func(chassis uint64, port uint32, ttl uint16) bool {
		in := LLDP{ChassisID: chassis, PortID: port, TTL: ttl}
		b := NewBuffer(32)
		in.SerializeTo(b)
		var out LLDP
		_, err := out.DecodeFromBytes(b.Bytes())
		return err == nil && out == in
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickFullFrameRoundTrip(t *testing.T) {
	f := func(src, dst MAC, sip, dip IPv4Addr, sp, dp uint16, payload []byte) bool {
		if len(payload) > 1200 {
			payload = payload[:1200]
		}
		b := NewBuffer(64)
		b.AppendBytes(payload)
		udp := UDP{SrcPort: sp, DstPort: dp}
		udp.SerializeToWithChecksum(b, sip, dip)
		ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: sip, Dst: dip}
		ip.SerializeTo(b)
		eth := Ethernet{Dst: dst, Src: src, EtherType: EtherTypeIPv4}
		eth.SerializeTo(b)

		var fr Frame
		if err := Decode(b.Bytes(), &fr); err != nil {
			return false
		}
		return fr.Eth == eth && fr.IPv4.Src == sip && fr.IPv4.Dst == dip &&
			fr.UDP.SrcPort == sp && fr.UDP.DstPort == dp &&
			bytes.Equal(fr.Payload, payload)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics feeds random bytes to Decode; the decoder
// must reject or accept but never panic or read out of bounds.
func TestQuickDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f Frame
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		// Bias some inputs toward valid-looking headers to reach deep paths.
		if n > 14 && i%3 == 0 {
			data[12], data[13] = 0x08, 0x00
			if n > 15 {
				data[14] = 0x45
			}
		}
		_ = Decode(data, &f)
	}
}

func TestQuickChecksumIncremental(t *testing.T) {
	// Checksum of data with its own checksum folded in verifies to zero.
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		if len(data) < 2 {
			return true
		}
		sum := Checksum(data, 0)
		buf := append([]byte(nil), data...)
		buf = append(buf, byte(sum>>8), byte(sum))
		return Checksum(buf, 0) == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// hashPopulations are the key sets the datapath's hash consumers see:
// the two adversarially regular ones (only the last address byte, or
// only the source port, counts up) and the benchmark's shape (random
// 10.1/16 clients to random 172.16/16 servers on five service ports).
func hashPopulations(n int) map[string][]FlowKey {
	base := FlowKey{EtherType: EtherTypeIPv4, Proto: ProtoTCP, SrcPort: 40000, DstPort: 80}
	copy(base.SrcIP[:], []byte{10, 0, 0, 0})
	copy(base.DstIP[:], []byte{10, 9, 9, 9})
	pops := map[string][]FlowKey{}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		host := base
		host.SrcIP[2], host.SrcIP[3] = byte(i>>8), byte(i)
		pops["sequential hosts"] = append(pops["sequential hosts"], host)

		port := base
		port.SrcPort = uint16(1024 + i)
		pops["sequential ports"] = append(pops["sequential ports"], port)

		b := base
		copy(b.SrcIP[:], []byte{10, 1, byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		copy(b.DstIP[:], []byte{172, 16, byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		b.SrcPort = uint16(1024 + rng.Intn(60000))
		b.DstPort = []uint16{80, 443, 53, 8080, 5000}[rng.Intn(5)]
		pops["benchmark clients"] = append(pops["benchmark clients"], b)
	}
	return pops
}

// checkHashFill asserts that hashes, cut to their low bits bits, load
// their buckets like a uniform hash would. With a mean load of 100 or
// more, every bucket is within a factor of 1.5 of the mean (five
// standard deviations at the sizes used here); with less, at least 95 %
// as many buckets are occupied as uniform throwing expects,
// B(1-(1-1/B)^n).
func checkHashFill(t *testing.T, name string, bits uint, hashes []uint64) {
	t.Helper()
	load := make([]int, 1<<bits)
	for _, h := range hashes {
		load[h&(1<<bits-1)]++
	}
	mean := float64(len(hashes)) / float64(len(load))
	if mean >= 100 {
		for b, n := range load {
			if float64(n) < mean/1.5 || float64(n) > 1.5*mean {
				t.Errorf("%s, low %d bits: bucket %d holds %d keys, mean %.0f", name, bits, b, n, mean)
				return
			}
		}
		return
	}
	occupied := 0
	for _, n := range load {
		if n > 0 {
			occupied++
		}
	}
	want := float64(len(load)) * (1 - math.Pow(1-1/float64(len(load)), float64(len(hashes))))
	if float64(occupied) < 0.95*want {
		t.Errorf("%s, low %d bits: %d buckets occupied, uniform expects %.0f", name, bits, occupied, want)
	}
}

// TestFlowKeyHashDispersion holds the hashes to the contract their
// consumers rely on: the low 6 bits pick a conntrack shard, the low 7
// a slot of the burst grouping table at 32 frames, the low 14 the
// tunnel's entropy port. (The microcache indexes its sets by
// flowtable's CacheKey.Hash, which folds FastHash in whole; that
// package's TestCacheKeyHashCoversEveryField holds it to its widths.)
func TestFlowKeyHashDispersion(t *testing.T) {
	const n = 16384
	for name, keys := range hashPopulations(n) {
		fast, sym := make([]uint64, n), make([]uint64, n)
		distinctKeys, distinctHashes := map[FlowKey]bool{}, map[uint64]bool{}
		for i := range keys {
			k := &keys[i]
			fast[i], sym[i] = k.FastHash(), k.SymmetricHash()
			distinctKeys[*k], distinctHashes[fast[i]] = true, true
		}
		if len(distinctHashes) != len(distinctKeys) {
			t.Errorf("%s: %d distinct FastHash values of %d distinct keys", name, len(distinctHashes), len(distinctKeys))
		}
		for _, bits := range []uint{6, 7, 14} {
			checkHashFill(t, name+" FastHash", bits, fast)
			checkHashFill(t, name+" SymmetricHash", bits, sym)
		}
	}
}

// TestQuickHashDirections: the symmetric hash is direction-free and the
// fast hash is not, for IPv4, IPv6, ARP and ICMP keys alike.
func TestQuickHashDirections(t *testing.T) {
	f := func(src, dst [16]byte, sp, dp, vlan uint16, kind uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, VLAN: vlan & 0xfff, Proto: ProtoTCP, SrcPort: sp, DstPort: dp}
		switch kind % 4 {
		case 0: // IPv4: addresses in the first four bytes
			k.EtherType = EtherTypeIPv4
			k.SrcIP, k.DstIP = [16]byte{}, [16]byte{}
			copy(k.SrcIP[:4], src[:])
			copy(k.DstIP[:4], dst[:])
		case 1:
			k.EtherType = EtherTypeIPv6
		case 2: // ARP: sender and target address, nothing else
			k = FlowKey{EtherType: EtherTypeARP}
			copy(k.SrcIP[:4], src[:])
			copy(k.DstIP[:4], dst[:])
		case 3: // ICMP: type and code ride in SrcPort
			k.EtherType, k.Proto, k.DstPort = EtherTypeIPv4, ProtoICMP, 0
		}
		r := k.Reverse()
		if k.SymmetricHash() != r.SymmetricHash() {
			return false
		}
		return k == r || k.FastHash() != r.FastHash()
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFlowKeyHashCoversEveryField changes one field at a time, one bit
// and then all bits, and demands both hashes move: a field dropped from
// the packed word, or a byte of an address no load covers, fails here.
func TestFlowKeyHashCoversEveryField(t *testing.T) {
	base := FlowKey{EtherType: EtherTypeIPv6, VLAN: 100, Proto: ProtoUDP, SrcPort: 4242, DstPort: 53}
	for i := range base.SrcIP {
		base.SrcIP[i], base.DstIP[i] = byte(0x20+i), byte(0xa0+i)
	}
	edits := map[string]func(k *FlowKey, x byte){
		"EtherType": func(k *FlowKey, x byte) { k.EtherType ^= uint16(x) << 8 },
		"VLAN":      func(k *FlowKey, x byte) { k.VLAN ^= uint16(x) },
		"Proto":     func(k *FlowKey, x byte) { k.Proto ^= x },
		"SrcPort":   func(k *FlowKey, x byte) { k.SrcPort ^= uint16(x) << 8 },
		"DstPort":   func(k *FlowKey, x byte) { k.DstPort ^= uint16(x) },
	}
	for i := range base.SrcIP {
		i := i
		edits[fmt.Sprintf("SrcIP[%d]", i)] = func(k *FlowKey, x byte) { k.SrcIP[i] ^= x }
		edits[fmt.Sprintf("DstIP[%d]", i)] = func(k *FlowKey, x byte) { k.DstIP[i] ^= x }
	}
	if want := reflect.TypeOf(base).NumField() + 2*(len(base.SrcIP)-1); len(edits) != want {
		t.Fatalf("%d edits for %d fields: FlowKey grew a field this test does not flip", len(edits), want)
	}
	for name, edit := range edits {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			k := base
			edit(&k, x)
			if k.FastHash() == base.FastHash() || k.SymmetricHash() == base.SymmetricHash() {
				t.Errorf("%s ^ %#02x leaves a hash unchanged", name, x)
			}
		}
	}
}

// Type assertion: generated values of named array types work with quick.
var _ = reflect.TypeOf(MAC{})
