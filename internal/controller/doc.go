// Package controller implements the zen control plane: a southbound
// TCP server speaking zof to datapaths, a network information base
// (switches, ports, links, hosts), LLDP-based topology discovery, and
// a northbound application framework in which control logic runs as
// event handlers — the logically centralized software the keynote's
// architecture separates from the forwarding hardware.
//
// # Apps and capabilities
//
// A northbound application implements App (just Name) plus whichever
// optional capability interfaces cover the events it cares about. The
// dispatcher type-asserts per event — an app pays nothing for events
// it does not handle. The full capability table:
//
//	interface          methods                  receives
//	-----------------  -----------------------  ----------------------------------
//	SwitchHandler      SwitchUp, SwitchDown     datapath lifecycle; SwitchUp.
//	                                            Reconnect marks a re-attach whose
//	                                            per-switch state must be
//	                                            reinstalled before the session's
//	                                            first audit pass flushes the
//	                                            old session's flows
//	PacketInHandler    PacketIn (returns bool)  packet-ins; returning true
//	                                            consumes the packet — later apps
//	                                            in Use order do not see it
//	FlowRemovedHandler FlowRemoved              flow expiry/removal notifications
//	PortStatusHandler  PortStatus               port add/modify/delete
//	LinkHandler        LinkUp, LinkDown         discovery topology changes
//	HostHandler        HostLearned              host location learning/moves
//	MetricsRegistrant  RegisterMetrics          not an event: invoked once at Use
//	                                            with the app's registry scope
//	                                            ("apps.<name>")
//
// Events are dispatched on a pool of shard workers keyed by DPID:
// everything concerning one switch is handled in FIFO order on one
// goroutine, while events of different switches may run concurrently.
// Apps must therefore be safe for concurrent handler invocation (every
// bundled app is; each guards its own state).
package controller
