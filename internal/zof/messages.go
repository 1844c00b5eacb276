package zof

import (
	"fmt"

	"repro/internal/packet"
)

// --- Hello, Echo, Barrier --------------------------------------------------

// Hello opens the handshake; both sides send it first.
type Hello struct{}

func (*Hello) Type() MsgType              { return TypeHello }
func (*Hello) AppendBody(b []byte) []byte { return b }
func (*Hello) DecodeBody(b []byte) error  { return nil }

// EchoRequest is a keepalive probe; the payload is echoed back.
type EchoRequest struct{ Data []byte }

func (*EchoRequest) Type() MsgType                { return TypeEchoRequest }
func (m *EchoRequest) AppendBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoRequest) DecodeBody(b []byte) error {
	m.Data = append(m.Data[:0], b...)
	return nil
}

// EchoReply answers an EchoRequest with the same payload.
type EchoReply struct{ Data []byte }

func (*EchoReply) Type() MsgType                { return TypeEchoReply }
func (m *EchoReply) AppendBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoReply) DecodeBody(b []byte) error {
	m.Data = append(m.Data[:0], b...)
	return nil
}

// BarrierRequest asks the datapath to finish all preceding messages
// before answering.
type BarrierRequest struct{}

func (*BarrierRequest) Type() MsgType              { return TypeBarrierRequest }
func (*BarrierRequest) AppendBody(b []byte) []byte { return b }
func (*BarrierRequest) DecodeBody(b []byte) error  { return nil }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{}

func (*BarrierReply) Type() MsgType              { return TypeBarrierReply }
func (*BarrierReply) AppendBody(b []byte) []byte { return b }
func (*BarrierReply) DecodeBody(b []byte) error  { return nil }

// --- Error -------------------------------------------------------------

// Error codes.
const (
	ErrCodeBadRequest uint16 = iota
	ErrCodeBadMatch
	ErrCodeBadAction
	ErrCodeTableFull
	ErrCodeBadTable
	ErrCodeBadPort
	ErrCodeBadGroup
	ErrCodeOverlap
	ErrCodeIsSlave
)

// ErrCodeName returns a human-readable name for an error code, for
// logs and counters.
func ErrCodeName(code uint16) string {
	switch code {
	case ErrCodeBadRequest:
		return "bad-request"
	case ErrCodeBadMatch:
		return "bad-match"
	case ErrCodeBadAction:
		return "bad-action"
	case ErrCodeTableFull:
		return "table-full"
	case ErrCodeBadTable:
		return "bad-table"
	case ErrCodeBadPort:
		return "bad-port"
	case ErrCodeBadGroup:
		return "bad-group"
	case ErrCodeOverlap:
		return "overlap"
	case ErrCodeIsSlave:
		return "is-slave"
	}
	return fmt.Sprintf("code-%d", code)
}

// Error reports a failure processing the message identified by XID (the
// error reply reuses the offending message's XID).
type Error struct {
	Code   uint16
	Detail string
}

func (*Error) Type() MsgType { return TypeError }
func (m *Error) AppendBody(b []byte) []byte {
	b = appendU16(b, m.Code)
	return append(b, m.Detail...)
}
func (m *Error) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Code = r.u16()
	if r.err {
		return ErrBadBody
	}
	m.Detail = string(b[2:])
	return nil
}

// Error also satisfies the error interface so handlers can return it.
func (m *Error) Error() string { return "zof error " + m.Detail }

// --- Features ------------------------------------------------------------

// Datapath capability bits.
const (
	CapFlowStats uint32 = 1 << iota
	CapPortStats
	CapTableStats
	CapGroups
	CapMeters
)

// Port state bits.
const (
	PortStateLinkDown uint32 = 1 << iota
	PortStateBlocked
)

// PortInfo describes one datapath port.
type PortInfo struct {
	No        uint32
	HWAddr    packet.MAC
	Name      string // at most 15 bytes on the wire
	State     uint32
	SpeedMbps uint32
}

// Up reports whether the port's link is up and unblocked.
func (p PortInfo) Up() bool { return p.State&(PortStateLinkDown|PortStateBlocked) == 0 }

const portInfoWireLen = 4 + 6 + 16 + 4 + 4

func appendPortInfo(b []byte, p *PortInfo) []byte {
	b = appendU32(b, p.No)
	b = append(b, p.HWAddr[:]...)
	var name [16]byte
	copy(name[:15], p.Name)
	b = append(b, name[:]...)
	b = appendU32(b, p.State)
	b = appendU32(b, p.SpeedMbps)
	return b
}

func decodePortInfo(r *reader, p *PortInfo) {
	p.No = r.u32()
	copy(p.HWAddr[:], r.bytes(6))
	name := r.bytes(16)
	if name != nil {
		n := 0
		for n < 16 && name[n] != 0 {
			n++
		}
		p.Name = string(name[:n])
	}
	p.State = r.u32()
	p.SpeedMbps = r.u32()
}

// FeaturesRequest asks the datapath to describe itself.
type FeaturesRequest struct{}

func (*FeaturesRequest) Type() MsgType              { return TypeFeaturesRequest }
func (*FeaturesRequest) AppendBody(b []byte) []byte { return b }
func (*FeaturesRequest) DecodeBody(b []byte) error  { return nil }

// FeaturesReply describes a datapath.
type FeaturesReply struct {
	DPID         uint64
	NumTables    uint8
	Capabilities uint32
	Ports        []PortInfo
}

func (*FeaturesReply) Type() MsgType { return TypeFeaturesReply }
func (m *FeaturesReply) AppendBody(b []byte) []byte {
	b = appendU64(b, m.DPID)
	b = append(b, m.NumTables)
	b = appendU32(b, m.Capabilities)
	b = appendU16(b, uint16(len(m.Ports)))
	for i := range m.Ports {
		b = appendPortInfo(b, &m.Ports[i])
	}
	return b
}
func (m *FeaturesReply) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.DPID = r.u64()
	m.NumTables = r.u8()
	m.Capabilities = r.u32()
	n := int(r.u16())
	if r.err || n*portInfoWireLen > r.remaining() {
		return ErrBadBody
	}
	m.Ports = make([]PortInfo, n)
	for i := range m.Ports {
		decodePortInfo(&r, &m.Ports[i])
	}
	if r.err {
		return ErrBadBody
	}
	return nil
}

// --- PacketIn / PacketOut -------------------------------------------------

// PacketIn reasons.
const (
	ReasonNoMatch uint8 = iota
	ReasonAction
)

// NoBuffer indicates the whole packet travels in the message.
const NoBuffer uint32 = 0xffffffff

// PacketIn delivers a packet (or its prefix) to the controller.
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	InPort   uint32
	TableID  uint8
	Reason   uint8
	Cookie   uint64
	Data     []byte
}

func (*PacketIn) Type() MsgType { return TypePacketIn }
func (m *PacketIn) AppendBody(b []byte) []byte {
	b = appendU32(b, m.BufferID)
	b = appendU16(b, m.TotalLen)
	b = appendU32(b, m.InPort)
	b = append(b, m.TableID, m.Reason)
	b = appendU64(b, m.Cookie)
	return append(b, m.Data...)
}
func (m *PacketIn) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.BufferID = r.u32()
	m.TotalLen = r.u16()
	m.InPort = r.u32()
	m.TableID = r.u8()
	m.Reason = r.u8()
	m.Cookie = r.u64()
	if r.err {
		return ErrBadBody
	}
	m.Data = append(m.Data[:0], b[r.off:]...)
	return nil
}

// PacketOut injects a packet into the datapath pipeline or ports.
type PacketOut struct {
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

func (*PacketOut) Type() MsgType { return TypePacketOut }
func (m *PacketOut) AppendBody(b []byte) []byte {
	b = appendU32(b, m.BufferID)
	b = appendU32(b, m.InPort)
	b = appendActions(b, m.Actions)
	return append(b, m.Data...)
}
func (m *PacketOut) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.BufferID = r.u32()
	m.InPort = r.u32()
	var err error
	if m.Actions, err = decodeActions(&r); err != nil {
		return err
	}
	if r.err {
		return ErrBadBody
	}
	m.Data = append(m.Data[:0], b[r.off:]...)
	return nil
}

// --- FlowMod / FlowRemoved -------------------------------------------------

// FlowMod commands.
const (
	FlowAdd uint8 = iota
	FlowModify
	FlowDelete       // wildcard delete: removes every subsumed entry
	FlowDeleteStrict // removes only the exact match+priority entry
)

// FlowMod flags.
const (
	FlagSendFlowRemoved uint16 = 1 << iota
	FlagCheckOverlap
)

// FlowMod installs, modifies or removes flow entries.
type FlowMod struct {
	Command uint8
	TableID uint8
	Match   Match
	Cookie  uint64
	// CookieMask narrows the two delete commands to the entries whose
	// cookie equals Cookie on the mask's bits (OpenFlow 1.1's
	// cookie_mask); 0 filters nothing, and all ones names one cookie
	// exactly. Add and modify ignore it.
	CookieMask  uint64
	IdleTimeout uint16 // seconds; 0 = none
	HardTimeout uint16 // seconds; 0 = none
	Priority    uint16
	BufferID    uint32
	Flags       uint16
	Actions     []Action
}

func (*FlowMod) Type() MsgType { return TypeFlowMod }
func (m *FlowMod) AppendBody(b []byte) []byte {
	b = append(b, m.Command, m.TableID)
	b = m.Match.appendTo(b)
	b = appendU64(b, m.Cookie)
	b = appendU64(b, m.CookieMask)
	b = appendU16(b, m.IdleTimeout)
	b = appendU16(b, m.HardTimeout)
	b = appendU16(b, m.Priority)
	b = appendU32(b, m.BufferID)
	b = appendU16(b, m.Flags)
	return appendActions(b, m.Actions)
}
func (m *FlowMod) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Command = r.u8()
	m.TableID = r.u8()
	m.Match.decodeFrom(&r)
	m.Cookie = r.u64()
	m.CookieMask = r.u64()
	m.IdleTimeout = r.u16()
	m.HardTimeout = r.u16()
	m.Priority = r.u16()
	m.BufferID = r.u32()
	m.Flags = r.u16()
	var err error
	if m.Actions, err = decodeActions(&r); err != nil {
		return err
	}
	if r.err || m.Command > FlowDeleteStrict {
		return ErrBadBody
	}
	return nil
}

// CookieMatches reports whether a delete m may touch an entry carrying
// cookie. It is the one place the cookie filter is written: the
// switch, the controller's intent store and its audit all apply it.
func (m *FlowMod) CookieMatches(cookie uint64) bool { return (cookie^m.Cookie)&m.CookieMask == 0 }

// FlowRemoved reasons.
const (
	RemovedIdleTimeout uint8 = iota
	RemovedHardTimeout
	RemovedDelete
)

// FlowRemoved tells the controller an entry expired or was deleted.
type FlowRemoved struct {
	Match         Match
	Cookie        uint64
	Priority      uint16
	Reason        uint8
	TableID       uint8
	DurationNanos uint64
	PacketCount   uint64
	ByteCount     uint64
}

func (*FlowRemoved) Type() MsgType { return TypeFlowRemoved }
func (m *FlowRemoved) AppendBody(b []byte) []byte {
	b = m.Match.appendTo(b)
	b = appendU64(b, m.Cookie)
	b = appendU16(b, m.Priority)
	b = append(b, m.Reason, m.TableID)
	b = appendU64(b, m.DurationNanos)
	b = appendU64(b, m.PacketCount)
	b = appendU64(b, m.ByteCount)
	return b
}
func (m *FlowRemoved) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Match.decodeFrom(&r)
	m.Cookie = r.u64()
	m.Priority = r.u16()
	m.Reason = r.u8()
	m.TableID = r.u8()
	m.DurationNanos = r.u64()
	m.PacketCount = r.u64()
	m.ByteCount = r.u64()
	if r.err {
		return ErrBadBody
	}
	return nil
}

// --- PortStatus -------------------------------------------------------------

// PortStatus reasons.
const (
	PortAdded uint8 = iota
	PortDeleted
	PortModified
)

// PortStatus announces a port change.
type PortStatus struct {
	Reason uint8
	Port   PortInfo
}

func (*PortStatus) Type() MsgType { return TypePortStatus }
func (m *PortStatus) AppendBody(b []byte) []byte {
	b = append(b, m.Reason)
	return appendPortInfo(b, &m.Port)
}
func (m *PortStatus) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Reason = r.u8()
	decodePortInfo(&r, &m.Port)
	if r.err {
		return ErrBadBody
	}
	return nil
}

// --- Stats -------------------------------------------------------------------

// Stats kinds.
const (
	StatsFlow uint8 = iota
	StatsAggregate
	StatsPort
	StatsTable
)

// StatsRequest asks for datapath statistics. Match/TableID scope flow and
// aggregate requests; PortNo scopes port requests (PortNone = all).
type StatsRequest struct {
	Kind    uint8
	TableID uint8
	PortNo  uint32
	Match   Match
}

func (*StatsRequest) Type() MsgType { return TypeStatsRequest }
func (m *StatsRequest) AppendBody(b []byte) []byte {
	b = append(b, m.Kind, m.TableID)
	b = appendU32(b, m.PortNo)
	return m.Match.appendTo(b)
}
func (m *StatsRequest) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Kind = r.u8()
	m.TableID = r.u8()
	m.PortNo = r.u32()
	m.Match.decodeFrom(&r)
	if r.err || m.Kind > StatsTable {
		return ErrBadBody
	}
	return nil
}

// FlowStats describes one flow entry.
type FlowStats struct {
	TableID       uint8
	Priority      uint16
	Match         Match
	Cookie        uint64
	DurationNanos uint64
	IdleTimeout   uint16
	HardTimeout   uint16
	PacketCount   uint64
	ByteCount     uint64
	Actions       []Action
}

// PortStats counts one port's traffic.
type PortStats struct {
	PortNo    uint32
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
}

// TableStats counts one table's activity.
type TableStats struct {
	TableID      uint8
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

// AggregateStats sums over matched flows.
type AggregateStats struct {
	PacketCount uint64
	ByteCount   uint64
	FlowCount   uint32
}

// StatsReply answers a StatsRequest; the slice for Kind is populated.
type StatsReply struct {
	Kind      uint8
	Flows     []FlowStats
	Ports     []PortStats
	Tables    []TableStats
	Aggregate AggregateStats
}

func (*StatsReply) Type() MsgType { return TypeStatsReply }
func (m *StatsReply) AppendBody(b []byte) []byte {
	b = append(b, m.Kind)
	switch m.Kind {
	case StatsFlow:
		b = appendU16(b, uint16(len(m.Flows)))
		for i := range m.Flows {
			f := &m.Flows[i]
			b = append(b, f.TableID)
			b = appendU16(b, f.Priority)
			b = f.Match.appendTo(b)
			b = appendU64(b, f.Cookie)
			b = appendU64(b, f.DurationNanos)
			b = appendU16(b, f.IdleTimeout)
			b = appendU16(b, f.HardTimeout)
			b = appendU64(b, f.PacketCount)
			b = appendU64(b, f.ByteCount)
			b = appendActions(b, f.Actions)
		}
	case StatsAggregate:
		b = appendU64(b, m.Aggregate.PacketCount)
		b = appendU64(b, m.Aggregate.ByteCount)
		b = appendU32(b, m.Aggregate.FlowCount)
	case StatsPort:
		b = appendU16(b, uint16(len(m.Ports)))
		for i := range m.Ports {
			p := &m.Ports[i]
			b = appendU32(b, p.PortNo)
			b = appendU64(b, p.RxPackets)
			b = appendU64(b, p.TxPackets)
			b = appendU64(b, p.RxBytes)
			b = appendU64(b, p.TxBytes)
			b = appendU64(b, p.RxDropped)
			b = appendU64(b, p.TxDropped)
		}
	case StatsTable:
		b = appendU16(b, uint16(len(m.Tables)))
		for i := range m.Tables {
			t := &m.Tables[i]
			b = append(b, t.TableID)
			b = appendU32(b, t.ActiveCount)
			b = appendU64(b, t.LookupCount)
			b = appendU64(b, t.MatchedCount)
		}
	}
	return b
}
func (m *StatsReply) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Kind = r.u8()
	switch m.Kind {
	case StatsFlow:
		n := int(r.u16())
		if r.err || n > r.remaining() { // each entry is > 1 byte
			return ErrBadBody
		}
		m.Flows = make([]FlowStats, n)
		for i := range m.Flows {
			f := &m.Flows[i]
			f.TableID = r.u8()
			f.Priority = r.u16()
			f.Match.decodeFrom(&r)
			f.Cookie = r.u64()
			f.DurationNanos = r.u64()
			f.IdleTimeout = r.u16()
			f.HardTimeout = r.u16()
			f.PacketCount = r.u64()
			f.ByteCount = r.u64()
			var err error
			if f.Actions, err = decodeActions(&r); err != nil {
				return err
			}
		}
	case StatsAggregate:
		m.Aggregate.PacketCount = r.u64()
		m.Aggregate.ByteCount = r.u64()
		m.Aggregate.FlowCount = r.u32()
	case StatsPort:
		n := int(r.u16())
		if r.err || n*52 > r.remaining() {
			return ErrBadBody
		}
		m.Ports = make([]PortStats, n)
		for i := range m.Ports {
			p := &m.Ports[i]
			p.PortNo = r.u32()
			p.RxPackets = r.u64()
			p.TxPackets = r.u64()
			p.RxBytes = r.u64()
			p.TxBytes = r.u64()
			p.RxDropped = r.u64()
			p.TxDropped = r.u64()
		}
	case StatsTable:
		n := int(r.u16())
		if r.err || n*21 > r.remaining() {
			return ErrBadBody
		}
		m.Tables = make([]TableStats, n)
		for i := range m.Tables {
			t := &m.Tables[i]
			t.TableID = r.u8()
			t.ActiveCount = r.u32()
			t.LookupCount = r.u64()
			t.MatchedCount = r.u64()
		}
	default:
		return ErrBadBody
	}
	if r.err {
		return ErrBadBody
	}
	return nil
}

// --- Roles ---------------------------------------------------------------

// Controller roles for multi-controller deployments.
const (
	RoleEqual uint32 = iota
	RoleMaster
	RoleSlave
)

// RoleRequest claims a controller role; GenerationID fences stale masters.
type RoleRequest struct {
	Role         uint32
	GenerationID uint64
}

func (*RoleRequest) Type() MsgType { return TypeRoleRequest }
func (m *RoleRequest) AppendBody(b []byte) []byte {
	b = appendU32(b, m.Role)
	return appendU64(b, m.GenerationID)
}
func (m *RoleRequest) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Role = r.u32()
	m.GenerationID = r.u64()
	if r.err || m.Role > RoleSlave {
		return ErrBadBody
	}
	return nil
}

// RoleReply confirms the granted role.
type RoleReply struct {
	Role         uint32
	GenerationID uint64
}

func (*RoleReply) Type() MsgType { return TypeRoleReply }
func (m *RoleReply) AppendBody(b []byte) []byte {
	b = appendU32(b, m.Role)
	return appendU64(b, m.GenerationID)
}
func (m *RoleReply) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Role = r.u32()
	m.GenerationID = r.u64()
	if r.err {
		return ErrBadBody
	}
	return nil
}

// --- Experimenter --------------------------------------------------------

// Experimenter carries an opaque vendor/extension payload over zof
// framing — the OpenFlow escape hatch for protocols layered on the
// same transport. The cluster's east-west plane (lease claims, NIB
// deltas, anti-entropy digests) rides these frames so every
// frame-aware tool built for the southbound channel — the netem
// Channel's blackholing, partitioning and counters in particular —
// works on peer links unchanged.
type Experimenter struct {
	// Experimenter identifies the extension's owner (like an OpenFlow
	// experimenter/vendor id); ExpType is the owner-scoped message kind.
	Experimenter uint32
	ExpType      uint32
	Data         []byte
}

func (*Experimenter) Type() MsgType { return TypeExperimenter }
func (m *Experimenter) AppendBody(b []byte) []byte {
	b = appendU32(b, m.Experimenter)
	b = appendU32(b, m.ExpType)
	return append(b, m.Data...)
}
func (m *Experimenter) DecodeBody(b []byte) error {
	r := reader{b: b}
	m.Experimenter = r.u32()
	m.ExpType = r.u32()
	if r.err {
		return ErrBadBody
	}
	m.Data = append([]byte(nil), b[r.off:]...)
	return nil
}
