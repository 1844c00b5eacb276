package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rwSpec is one IPv4 TCP/UDP frame in field form, so the checker can
// serialize it twice: as the kernel's input, and — with the edited
// fields changed — as the from-scratch frame the kernel's output must
// equal. The from-scratch serializers are the oracle; the kernel itself
// never sums a frame.
type rwSpec struct {
	vlan      bool
	tcp       bool
	udpNoSum  bool // UDP checksum 0 (disabled)
	tos       uint8
	id        uint16
	src, dst  IPv4Addr
	sp, dp    uint16
	ipOpts    []byte
	payload   []byte
	ethPadLen int // trailing bytes past the IP total length
}

// frame serializes the spec with every checksum computed from scratch.
func (s rwSpec) frame() []byte {
	b := NewBuffer(128)
	b.AppendBytes(s.payload)
	proto := ProtoUDP
	switch {
	case s.tcp:
		proto = ProtoTCP
		t := TCP{SrcPort: s.sp, DstPort: s.dp, Seq: 7, Ack: 9, Flags: 0x10, Window: 512}
		t.SerializeToWithChecksum(b, s.src, s.dst)
	case s.udpNoSum:
		u := UDP{SrcPort: s.sp, DstPort: s.dp}
		u.SerializeTo(b)
	default:
		u := UDP{SrcPort: s.sp, DstPort: s.dp}
		u.SerializeToWithChecksum(b, s.src, s.dst)
	}
	ip := IPv4{TOS: s.tos, ID: s.id, TTL: 64, Protocol: proto, Src: s.src, Dst: s.dst, Options: s.ipOpts}
	ip.SerializeTo(b)
	eth := Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), EtherType: EtherTypeIPv4}
	if s.vlan {
		tag := Dot1Q{Priority: 3, VLAN: 100, EtherType: EtherTypeIPv4}
		tag.SerializeTo(b)
		eth.EtherType = EtherTypeVLAN
	}
	eth.SerializeTo(b)
	out := append([]byte(nil), b.Bytes()...)
	for i := 0; i < s.ethPadLen; i++ {
		out = append(out, 0xa5)
	}
	return out
}

// sumOffsets locates the IPv4 and TCP/UDP checksum fields of the
// spec's frame.
func (s rwSpec) sumOffsets() (ip, l4 int) {
	l3 := EthernetHeaderLen
	if s.vlan {
		l3 += Dot1QHeaderLen
	}
	l4 = l3 + IPv4MinHeaderLen + len(s.ipOpts) + 6
	if s.tcp {
		l4 += 10
	}
	return l3 + 10, l4
}

// rwEdit is one call into the kernel: which of the five setters, and
// the value (an address, or a TOS or port in its low bits).
type rwEdit struct {
	kind  uint8 // % 5: src, dst, tos, l4 src, l4 dst
	value uint32
}

var rwEditNames = [5]string{"ipv4-src", "ipv4-dst", "ipv4-tos", "l4-src", "l4-dst"}

// apply runs the edit through the kernel and records it in the spec.
func (e rwEdit) apply(f *Frame, data []byte, s *rwSpec) {
	switch e.kind % 5 {
	case 0:
		s.src = IPv4FromUint32(e.value)
		f.SetIPv4Src(data, s.src)
	case 1:
		s.dst = IPv4FromUint32(e.value)
		f.SetIPv4Dst(data, s.dst)
	case 2:
		s.tos = uint8(e.value)
		f.SetIPv4TOS(data, s.tos)
	case 3:
		s.sp = uint16(e.value)
		f.SetL4Src(data, s.sp)
	case 4:
		s.dp = uint16(e.value)
		f.SetL4Dst(data, s.dp)
	}
}

// describe defers formatting a case's name to the failure that prints
// it: the fuzz target runs the checker tens of thousands of times a
// second and almost never needs the text.
type describe func() string

func (d describe) String() string { return d() }

// ocAdd is ones'-complement addition of 16-bit words; ocNorm maps the
// two representations of zero onto one.
func ocAdd(a, b uint16) uint16 {
	s := uint32(a) + uint32(b)
	return uint16(s&0xffff + s>>16)
}

func ocNorm(a uint16) uint16 {
	if a == 0xffff {
		return 0
	}
	return a
}

// skew adds err, in ones'-complement arithmetic, to the checksum stored
// at data[at:] — the frame now carries a checksum that is wrong by err.
func skew(data []byte, at int, err uint16) {
	binary.BigEndian.PutUint16(data[at:], ocAdd(binary.BigEndian.Uint16(data[at:]), err))
}

// checkRewrite is the rewrite kernel's contract, shared by the seeded
// test, the crafted edge cases and the fuzz target. The frame of spec
// arrives with its IPv4 and TCP/UDP checksums wrong by ipErr and l4Err
// (zero: valid), the edits run through the kernel in order, and:
//
//   - with valid checksums in, the bytes out equal a from-scratch
//     serialization of the edited fields, exactly — including which
//     zero a checksum of zero is written as;
//   - with a wrong checksum in, everything but that checksum equals the
//     from-scratch frame and the checksum is wrong by the same amount:
//     the kernel adjusts, it never repairs (RFC 1624 §2, RFC 3022 §4.1
//     — the receiver must still see what the sender or wire corrupted);
//   - a disabled UDP checksum stays disabled;
//   - the decoded view the kernel kept in step equals a fresh decode.
func checkRewrite(t testing.TB, spec rwSpec, edits []rwEdit, ipErr, l4Err uint16) {
	t.Helper()
	if spec.udpNoSum && !spec.tcp {
		l4Err = 0 // no checksum to get wrong
	}
	arrived := spec
	name := describe(func() string { // formatted only when a check fails
		s := fmt.Sprintf("%+v ipErr=%#04x l4Err=%#04x", arrived, ipErr, l4Err)
		for _, e := range edits {
			s += " " + rwEditNames[e.kind%5]
		}
		return s
	})
	data := spec.frame()
	ipAt, l4At := spec.sumOffsets()
	skew(data, ipAt, ipErr)
	skew(data, l4At, l4Err)
	var f Frame
	if err := Decode(data, &f); err != nil {
		t.Fatalf("%v: fixture does not decode: %v", name, err)
	}
	for _, e := range edits {
		e.apply(&f, data, &spec)
	}

	want := spec.frame()
	if ipErr == 0 && l4Err == 0 {
		if !bytes.Equal(data, want) {
			t.Fatalf("%s:\n got %x\nwant %x", name, data, want)
		}
	} else {
		// Compare the checksums as ones'-complement values, the rest
		// byte for byte.
		for _, c := range []struct {
			at  int
			err uint16
		}{{ipAt, ipErr}, {l4At, l4Err}} {
			got := binary.BigEndian.Uint16(data[c.at:])
			scratch := binary.BigEndian.Uint16(want[c.at:])
			if ocNorm(got) != ocNorm(ocAdd(scratch, c.err)) {
				t.Fatalf("%s: checksum at %d is %#04x; from scratch %#04x, arrived wrong by %#04x", name, c.at, got, scratch, c.err)
			}
			binary.BigEndian.PutUint16(want[c.at:], got)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("%s: differs outside the checksums:\n got %x\nwant %x", name, data, want)
		}
	}

	var re Frame
	if err := Decode(data, &re); err != nil {
		t.Fatalf("%s: rewritten frame does not decode: %v", name, err)
	}
	l3 := re.L3Offset()
	if ok := re.IPv4.VerifyChecksum(data[l3:]); ok != (ocNorm(ipErr) == 0) {
		t.Errorf("%s: IPv4 header verifies = %v after arriving wrong by %#04x", name, ok, ipErr)
	}
	seg := data[l3+re.IPv4.HeaderLen() : l3+int(re.IPv4.Length)]
	proto, stored := ProtoUDP, re.UDP.Checksum
	if spec.tcp {
		proto, stored = ProtoTCP, re.TCP.Checksum
	}
	switch {
	case !spec.tcp && spec.udpNoSum:
		if stored != 0 {
			t.Errorf("%s: disabled UDP checksum became %#04x", name, stored)
		}
	default:
		// Summing a segment over its own checksum verifies to zero.
		if ok := TransportChecksum(seg, re.IPv4.Src, re.IPv4.Dst, proto) == 0; ok != (ocNorm(l4Err) == 0) {
			t.Errorf("%s: L4 checksum verifies = %v after arriving wrong by %#04x", name, ok, l4Err)
		}
		if !spec.tcp && stored == 0 {
			t.Errorf("%s: live UDP checksum written as 0 (disabled)", name)
		}
	}
	if f.IPv4.Src != re.IPv4.Src || f.IPv4.Dst != re.IPv4.Dst || f.IPv4.TOS != re.IPv4.TOS ||
		f.IPv4.Checksum != re.IPv4.Checksum || f.TCP.SrcPort != re.TCP.SrcPort ||
		f.TCP.DstPort != re.TCP.DstPort || f.TCP.Checksum != re.TCP.Checksum ||
		f.UDP.SrcPort != re.UDP.SrcPort || f.UDP.DstPort != re.UDP.DstPort ||
		f.UDP.Checksum != re.UDP.Checksum {
		t.Errorf("%s: decoded view out of step with the bytes", name)
	}
}

// rwScript reads a frame spec, checksum errors and a setter sequence
// out of bytes; bytes past the end read as zero.
type rwScript struct {
	data []byte
	i    int
}

func (s *rwScript) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return s.data[s.i-1]
}

func (s *rwScript) u16() uint16 { return uint16(s.next())<<8 | uint16(s.next()) }
func (s *rwScript) u32() uint32 { return uint32(s.u16())<<16 | uint32(s.u16()) }

func (s *rwScript) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// checkRewriteScript runs the case encoded in data: flags (VLAN, TCP,
// UDP checksum off, Ethernet padding, 0-3 words of IPv4 options, and
// two bits that each leave a checksum valid three times in four), the
// header fields, up to 63 payload bytes, then 1-5 setters.
func checkRewriteScript(t testing.TB, data []byte) {
	s := &rwScript{data: data}
	flags, errs := s.next(), s.next()
	spec := rwSpec{
		vlan:     flags&1 != 0,
		tcp:      flags&2 != 0,
		udpNoSum: flags&4 != 0,
		tos:      s.next(),
		id:       s.u16(),
		src:      IPv4FromUint32(s.u32()),
		dst:      IPv4FromUint32(s.u32()),
		sp:       s.u16(),
		dp:       s.u16(),
	}
	if flags&8 != 0 {
		spec.ethPadLen = 1 + int(flags>>6)
	}
	spec.ipOpts = s.bytes(4 * int(flags>>4&3))
	spec.payload = s.bytes(int(s.next() % 64))
	var ipErr, l4Err uint16
	if errs&3 == 3 {
		ipErr = s.u16()
	}
	if errs>>2&3 == 3 {
		l4Err = s.u16()
	}
	edits := make([]rwEdit, 1+int(s.next()%5))
	for i := range edits {
		edits[i] = rwEdit{kind: s.next(), value: s.u32()}
	}
	checkRewrite(t, spec, edits, ipErr, l4Err)
}

// TestRewriteKernelDifferential drives the contract over seeded random
// cases — NAT applies two setters to a frame and a set-field rule may
// apply all five, so every case is a sequence — covering odd and even
// segment lengths, IPv4 options, Ethernet padding past the IP total
// length, and checksums that arrive wrong.
func TestRewriteKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	script := make([]byte, 128)
	for i := 0; i < 4000; i++ {
		rng.Read(script)
		checkRewriteScript(t, script)
	}
}

// solve returns the x for which the spec, changed by set, serializes
// with the wanted checksum at the IPv4 (l4 false) or TCP/UDP field. One
// 16-bit word of a summed region reaches every checksum but the
// impossible one (an all-zero sum).
func solve(t *testing.T, base rwSpec, l4 bool, want uint16, set func(s *rwSpec, x uint16)) uint16 {
	t.Helper()
	for x := 0; x < 1<<16; x++ {
		s := base
		set(&s, uint16(x))
		ipAt, at := s.sumOffsets()
		if !l4 {
			at = ipAt
		}
		if binary.BigEndian.Uint16(s.frame()[at:]) == want {
			return uint16(x)
		}
	}
	t.Fatalf("no value gives checksum %#04x", want)
	return 0
}

// TestRewriteKernelZeroEdges aims the contract at the two zeros of
// ones'-complement arithmetic, where an incremental update goes wrong
// if it goes wrong anywhere (RFC 1624 exists because RFC 1141's eqn. 2
// did): checksums that are 0x0000 before or after the edit, a UDP
// checksum transmitted as 0xffff because it computed to zero, one that
// adjusts to zero, a TCP checksum that arrives as the other zero, and
// UDP with the checksum disabled. Each runs on a bare frame and on one
// with a VLAN tag, IPv4 options, an odd-length segment and padding.
func TestRewriteKernelZeroEdges(t *testing.T) {
	bases := []rwSpec{
		{tos: 0x10, id: 1, src: IPv4Addr{10, 1, 2, 3}, dst: IPv4Addr{172, 16, 4, 5}, sp: 4242, dp: 53, payload: []byte("even")},
		{vlan: true, tos: 0x2e, id: 2, src: IPv4Addr{192, 168, 255, 254}, dst: IPv4Addr{203, 0, 113, 9}, sp: 65535, dp: 1,
			ipOpts: []byte{0x94, 0x04, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00}, payload: []byte("odd"), ethPadLen: 5},
	}
	setID := func(s *rwSpec, x uint16) { s.id = x }
	setSP := func(s *rwSpec, x uint16) { s.sp = x }
	setDP := func(s *rwSpec, x uint16) { s.dp = x }
	setSrcLow := func(s *rwSpec, x uint16) { s.src[2], s.src[3] = byte(x>>8), byte(x) }
	everySetter := []rwEdit{{0, 0x0a000001}, {1, 0xc0a80001}, {2, 0xff}, {3, 0}, {4, 0xffff}}
	for _, base := range bases {
		for _, tcp := range []bool{true, false} {
			base.tcp = tcp
			// The L4 checksum is stored as 0x0000 (TCP) or, computing
			// to zero, as 0xffff (UDP).
			zero := uint16(0xffff)
			if tcp {
				zero = 0
			}

			// Zero before the edit.
			s := base
			s.id = solve(t, s, false, 0, setID)
			s.sp = solve(t, s, true, zero, setSP)
			for _, e := range everySetter {
				checkRewrite(t, s, []rwEdit{e}, 0, 0)
			}
			checkRewrite(t, s, everySetter, 0, 0)

			// Zero after it: the IPv4 sum by the new source address
			// (which moves the L4 sum too), the L4 sum by the new port.
			low := solve(t, base, false, 0, setSrcLow)
			newSrc := uint32(base.src[0])<<24 | uint32(base.src[1])<<16 | uint32(low)
			checkRewrite(t, base, []rwEdit{{0, newSrc}}, 0, 0)
			checkRewrite(t, base, []rwEdit{{4, uint32(solve(t, base, true, zero, setDP))}}, 0, 0)
			moved := base
			moved.src = IPv4FromUint32(newSrc)
			checkRewrite(t, base, []rwEdit{{0, newSrc}, {3, uint32(solve(t, moved, true, zero, setSP))}}, 0, 0)

			// The widest delta on the smallest sum: 0.0.0.0 becomes
			// 255.255.255.255 under a header checksum of 0xfffe, so the
			// first fold of the adjustment carries out again.
			wide := base
			wide.src = IPv4Addr{}
			wide.id = solve(t, wide, false, 0xfffe, setID)
			checkRewrite(t, wide, []rwEdit{{0, 0xffffffff}}, 0, 0)

			// An edit that changes nothing, and one that is undone.
			checkRewrite(t, s, []rwEdit{{3, uint32(s.sp)}, {2, uint32(s.tos)}}, 0, 0)
			checkRewrite(t, s, []rwEdit{{1, 0}, {1, s.dst.Uint32()}, {4, 0xffff}, {4, uint32(s.dp)}}, 0, 0)

			// The other zero on arrival: 0xffff where from scratch says
			// 0x0000 verifies, and is an error of zero.
			if tcp {
				checkRewrite(t, s, everySetter[3:], 0xffff, 0xffff)
			}
			// Wrong on arrival, by one and by nearly everything.
			for _, e := range []uint16{1, 0x8000, 0xfffe} {
				checkRewrite(t, s, everySetter, e, 0)
				checkRewrite(t, s, everySetter, 0, e)
			}
		}
		base.tcp, base.udpNoSum = false, true
		checkRewrite(t, base, everySetter, 0, 0)
	}
}

// FuzzRewriteKernel drives the same checker from bytes. The corpus
// under testdata/fuzz holds a NAT-shaped pair of setters on a TCP and
// on a checksum-less UDP frame, and a five-setter run over a tagged
// frame with options that arrives with both checksums wrong.
func FuzzRewriteKernel(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRewriteScript(t, data) })
}
