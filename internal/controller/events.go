package controller

import "repro/internal/zof"

// Event is anything the control plane reacts to. Dispatch semantics
// and the capability-interface table live in the package comment
// (doc.go).
type Event any

// SwitchUp fires when a datapath completes its handshake, or when a
// cluster instance activates a switch it now owns. Reconnect is set
// when the DPID has been connected before (the session is a re-attach
// after a crash or control-channel flap): handlers holding per-switch
// state should reinstall it, sending before they return. Once every app
// has handled a re-attach's or an activation's SwitchUp, dispatch
// starts the cookie-epoch reconciliation that flushes flows left over
// from an earlier session (see SwitchConn.Epoch).
type SwitchUp struct {
	DPID      uint64
	Features  zof.FeaturesReply
	Reconnect bool

	// reconcile is the session whose stale flows dispatch flushes after
	// this event; nil when there is nothing to reconcile.
	reconcile *SwitchConn
}

// SwitchDown fires when a datapath's session ends.
type SwitchDown struct {
	DPID uint64
}

// PacketInEvent carries a packet-in from a datapath.
type PacketInEvent struct {
	DPID uint64
	Msg  zof.PacketIn
}

// FlowRemovedEvent carries a flow expiry/removal notification.
type FlowRemovedEvent struct {
	DPID uint64
	Msg  zof.FlowRemoved
}

// PortStatusEvent carries a port change notification.
type PortStatusEvent struct {
	DPID uint64
	Msg  zof.PortStatus
}

// LinkUp fires when discovery confirms a unidirectional link; the NIB
// graph records it bidirectionally once both directions are seen (or
// immediately, since LLDP floods both ways in one round).
type LinkUp struct {
	SrcDPID uint64
	SrcPort uint32
	DstDPID uint64
	DstPort uint32
}

// LinkDown fires when a discovered link disappears (port down or
// discovery timeout).
type LinkDown struct {
	SrcDPID uint64
	SrcPort uint32
	DstDPID uint64
	DstPort uint32
}

// HostLearned fires the first time a host's location is seen (or when
// it moves).
type HostLearned struct {
	MAC  [6]byte
	IP   [4]byte // zero if unknown (non-IP traffic)
	DPID uint64
	Port uint32
}

// App is a northbound application. Optional capability interfaces
// determine which events it receives — see the capability table in the
// package comment (doc.go).
type App interface {
	Name() string
}

// SwitchHandler receives datapath lifecycle events.
type SwitchHandler interface {
	SwitchUp(c *Controller, ev SwitchUp)
	SwitchDown(c *Controller, ev SwitchDown)
}

// PacketInHandler receives packet-ins. Returning true consumes the
// packet: later apps do not see it.
type PacketInHandler interface {
	PacketIn(c *Controller, ev PacketInEvent) bool
}

// FlowRemovedHandler receives flow removals.
type FlowRemovedHandler interface {
	FlowRemoved(c *Controller, ev FlowRemovedEvent)
}

// PortStatusHandler receives port changes.
type PortStatusHandler interface {
	PortStatus(c *Controller, ev PortStatusEvent)
}

// LinkHandler receives topology changes from discovery.
type LinkHandler interface {
	LinkUp(c *Controller, ev LinkUp)
	LinkDown(c *Controller, ev LinkDown)
}

// HostHandler receives host location learning events.
type HostHandler interface {
	HostLearned(c *Controller, ev HostLearned)
}
