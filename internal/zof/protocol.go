package zof

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the only protocol version this implementation speaks.
const Version uint8 = 1

// HeaderLen is the length of the fixed message header.
const HeaderLen = 8

// MaxMessageLen bounds a single message, header included: the header's
// Length field is 16 bits. MarshalAppend refuses anything longer with
// ErrMessageTooBig rather than write a frame whose length has wrapped.
const MaxMessageLen = 1<<16 - 1

// MsgType identifies a message body.
type MsgType uint8

// Message type codes.
const (
	TypeHello MsgType = iota
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeFeaturesRequest
	TypeFeaturesReply
	TypePacketIn
	TypePacketOut
	TypeFlowMod
	TypeFlowRemoved
	TypePortStatus
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
	TypeRoleRequest
	TypeRoleReply
	TypeGroupMod
	TypeExperimenter
	typeMax // sentinel
)

var msgTypeNames = [...]string{
	"Hello", "Error", "EchoRequest", "EchoReply", "FeaturesRequest",
	"FeaturesReply", "PacketIn", "PacketOut", "FlowMod", "FlowRemoved",
	"PortStatus", "StatsRequest", "StatsReply", "BarrierRequest",
	"BarrierReply", "RoleRequest", "RoleReply", "GroupMod",
	"Experimenter",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Protocol-level errors.
var (
	ErrShortMessage   = errors.New("zof: message shorter than its header claims")
	ErrBadVersion     = errors.New("zof: unsupported protocol version")
	ErrBadType        = errors.New("zof: unknown message type")
	ErrMessageTooBig  = errors.New("zof: message exceeds MaxMessageLen")
	ErrBadBody        = errors.New("zof: malformed message body")
	ErrTypeMismatch   = errors.New("zof: reply type does not match request")
	ErrConnClosed     = errors.New("zof: connection closed")
	ErrHandshakeState = errors.New("zof: message illegal in current handshake state")
	ErrEchoPayload    = errors.New("zof: echo reply payload does not match request")
)

// Message is a protocol message body. Implementations marshal themselves
// without the header; framing adds it.
type Message interface {
	// Type returns the message type code.
	Type() MsgType
	// AppendBody appends the wire form of the body to b.
	AppendBody(b []byte) []byte
	// DecodeBody parses the wire form. The slice is only valid during
	// the call; implementations must copy what they retain.
	DecodeBody(b []byte) error
}

// Header is the fixed preamble of every message.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16
	XID     uint32
}

// DecodeHeader parses the 8-byte header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrShortMessage
	}
	h := Header{
		Version: b[0],
		Type:    MsgType(b[1]),
		Length:  binary.BigEndian.Uint16(b[2:4]),
		XID:     binary.BigEndian.Uint32(b[4:8]),
	}
	if h.Version != Version {
		return h, ErrBadVersion
	}
	if h.Type >= typeMax {
		return h, ErrBadType
	}
	if int(h.Length) < HeaderLen {
		return h, ErrShortMessage
	}
	return h, nil
}

// Marshal frames msg with the header and returns the complete wire form
// in a freshly allocated slice.
func Marshal(msg Message, xid uint32) ([]byte, error) {
	return MarshalAppend(make([]byte, 0, HeaderLen+64), msg, xid)
}

// MarshalAppend frames msg with the header and appends the complete
// wire form to dst, returning the extended slice. It is the
// encode-into path: reusing dst across calls makes encoding
// allocation-free once the buffer has grown to the message size, and
// several messages may be framed back to back into one buffer.
func MarshalAppend(dst []byte, msg Message, xid uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	dst = msg.AppendBody(dst)
	n := len(dst) - start
	if n > MaxMessageLen {
		return dst[:start], ErrMessageTooBig
	}
	hdr := dst[start:]
	hdr[0] = Version
	hdr[1] = uint8(msg.Type())
	binary.BigEndian.PutUint16(hdr[2:4], uint16(n))
	binary.BigEndian.PutUint32(hdr[4:8], xid)
	return dst, nil
}

// Unmarshal parses one complete framed message (header plus body).
func Unmarshal(b []byte) (Message, Header, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return nil, h, err
	}
	if int(h.Length) > len(b) {
		return nil, h, ErrShortMessage
	}
	msg := NewMessage(h.Type)
	if msg == nil {
		return nil, h, ErrBadType
	}
	if err := msg.DecodeBody(b[HeaderLen:h.Length]); err != nil {
		return nil, h, err
	}
	return msg, h, nil
}

// NewMessage returns a zero value of the message struct for t, or nil if
// t is unknown.
func NewMessage(t MsgType) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeError:
		return &Error{}
	case TypeEchoRequest:
		return &EchoRequest{}
	case TypeEchoReply:
		return &EchoReply{}
	case TypeFeaturesRequest:
		return &FeaturesRequest{}
	case TypeFeaturesReply:
		return &FeaturesReply{}
	case TypePacketIn:
		return &PacketIn{}
	case TypePacketOut:
		return &PacketOut{}
	case TypeFlowMod:
		return &FlowMod{}
	case TypeFlowRemoved:
		return &FlowRemoved{}
	case TypePortStatus:
		return &PortStatus{}
	case TypeStatsRequest:
		return &StatsRequest{}
	case TypeStatsReply:
		return &StatsReply{}
	case TypeBarrierRequest:
		return &BarrierRequest{}
	case TypeBarrierReply:
		return &BarrierReply{}
	case TypeRoleRequest:
		return &RoleRequest{}
	case TypeRoleReply:
		return &RoleReply{}
	case TypeGroupMod:
		return &GroupMod{}
	case TypeExperimenter:
		return &Experimenter{}
	}
	return nil
}

// appendU16/appendU32/appendU64 are tiny big-endian append helpers shared
// by the message encoders.
func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// reader is a bounds-checked big-endian cursor used by the decoders.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) bytes(n int) []byte {
	if r.err || r.remaining() < n {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u8() uint8 {
	v := r.bytes(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *reader) u16() uint16 {
	v := r.bytes(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

func (r *reader) u32() uint32 {
	v := r.bytes(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.bytes(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}
