package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rwSpec is one random IPv4 TCP/UDP frame in field form, so the test
// can serialize it twice: as the kernel's input, and — with one field
// changed — as the from-scratch frame the kernel's output must equal.
type rwSpec struct {
	vlan      bool
	tcp       bool
	udpNoSum  bool // UDP checksum 0 (disabled)
	tos       uint8
	src, dst  IPv4Addr
	sp, dp    uint16
	ipOpts    []byte
	payload   []byte
	ethPadLen int // trailing bytes past the IP total length
}

func randRWSpec(rng *rand.Rand) rwSpec {
	s := rwSpec{
		vlan:     rng.Intn(2) == 0,
		tcp:      rng.Intn(2) == 0,
		udpNoSum: rng.Intn(3) == 0,
		tos:      uint8(rng.Intn(256)),
		src:      IPv4FromUint32(rng.Uint32()),
		dst:      IPv4FromUint32(rng.Uint32()),
		sp:       uint16(rng.Intn(65536)),
		dp:       uint16(rng.Intn(65536)),
		ipOpts:   make([]byte, 4*rng.Intn(4)),
		payload:  make([]byte, rng.Intn(64)), // odd and even lengths, and empty
	}
	rng.Read(s.ipOpts)
	rng.Read(s.payload)
	if rng.Intn(2) == 0 {
		s.ethPadLen = 1 + rng.Intn(8)
	}
	return s
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
	ip := IPv4{TOS: s.tos, ID: 0x1234, TTL: 64, Protocol: proto, Src: s.src, Dst: s.dst, Options: s.ipOpts}
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

// TestRewriteKernelDifferential runs every setter of the rewrite
// kernel over seeded random frames and demands the bytes a from-scratch
// serialization of the edited fields gives, with the decoded view kept
// in step.
func TestRewriteKernelDifferential(t *testing.T) {
	setters := []struct {
		name string
		set  func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec)
	}{
		{"ipv4-src", func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec) {
			s.src = IPv4FromUint32(rng.Uint32())
			f.SetIPv4Src(data, s.src)
		}},
		{"ipv4-dst", func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec) {
			s.dst = IPv4FromUint32(rng.Uint32())
			f.SetIPv4Dst(data, s.dst)
		}},
		{"ipv4-tos", func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec) {
			s.tos = uint8(rng.Intn(256))
			f.SetIPv4TOS(data, s.tos)
		}},
		{"l4-src", func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec) {
			s.sp = uint16(rng.Intn(65536))
			f.SetL4Src(data, s.sp)
		}},
		{"l4-dst", func(f *Frame, data []byte, rng *rand.Rand, s *rwSpec) {
			s.dp = uint16(rng.Intn(65536))
			f.SetL4Dst(data, s.dp)
		}},
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		for _, st := range setters {
			spec := randRWSpec(rng)
			data := spec.frame()
			var f Frame
			if err := Decode(data, &f); err != nil {
				t.Fatalf("fixture %d does not decode: %v", i, err)
			}
			st.set(&f, data, rng, &spec)
			name := fmt.Sprintf("%s #%d %+v", st.name, i, spec)

			if want := spec.frame(); !bytes.Equal(data, want) {
				t.Fatalf("%s:\n got %x\nwant %x", name, data, want)
			}
			var re Frame
			if err := Decode(data, &re); err != nil {
				t.Fatalf("%s: rewritten frame does not decode: %v", name, err)
			}
			l3 := re.L3Offset()
			if !re.IPv4.VerifyChecksum(data[l3:]) {
				t.Errorf("%s: IPv4 header does not sum to zero", name)
			}
			seg := append([]byte(nil), data[l3+re.IPv4.HeaderLen():l3+int(re.IPv4.Length)]...)
			sumAt, proto, got := 6, ProtoUDP, re.UDP.Checksum
			if spec.tcp {
				sumAt, proto, got = 16, ProtoTCP, re.TCP.Checksum
			}
			seg[sumAt], seg[sumAt+1] = 0, 0
			want := TransportChecksum(seg, re.IPv4.Src, re.IPv4.Dst, proto)
			switch {
			case !spec.tcp && spec.udpNoSum:
				want = 0 // a disabled UDP checksum stays disabled
			case !spec.tcp && want == 0:
				want = 0xffff
			}
			if got != want {
				t.Errorf("%s: L4 checksum %#04x, from scratch %#04x", name, got, want)
			}
			if binary.BigEndian.Uint16(data[l3+re.IPv4.HeaderLen()+sumAt:]) != got {
				t.Errorf("%s: decoded checksum disagrees with the bytes", name)
			}
			// The view the kernel kept in step equals a fresh decode.
			if f.IPv4.Src != re.IPv4.Src || f.IPv4.Dst != re.IPv4.Dst || f.IPv4.TOS != re.IPv4.TOS ||
				f.IPv4.Checksum != re.IPv4.Checksum || f.TCP.SrcPort != re.TCP.SrcPort ||
				f.TCP.DstPort != re.TCP.DstPort || f.TCP.Checksum != re.TCP.Checksum ||
				f.UDP.SrcPort != re.UDP.SrcPort || f.UDP.DstPort != re.UDP.DstPort ||
				f.UDP.Checksum != re.UDP.Checksum {
				t.Errorf("%s: decoded view out of step with the bytes", name)
			}
		}
	}
}
