package cluster

import (
	"encoding/json"
	"strconv"

	"repro/internal/controller"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// Delta kinds. Each delta is one NIB event, attributed to the instance
// that observed it (the origin of the log it rides in).
const (
	DeltaSwitchUp   = "switch-up"
	DeltaSwitchDown = "switch-down"
	DeltaPort       = "port"
	DeltaLinkUp     = "link-up"
	DeltaLinkDown   = "link-down"
	DeltaHost       = "host"
)

// Delta is one replicated NIB event. The master of a switch appends
// deltas for everything it observes about it; standbys apply them so
// their topology picture — switches, ports, links, host locations —
// is already warm when a takeover makes it authoritative.
type Delta struct {
	Kind     string
	DPID     uint64               `json:",omitempty"`
	Features *zof.FeaturesReply   `json:",omitempty"`
	Port     *zof.PortInfo        `json:",omitempty"`
	SrcDPID  uint64               `json:",omitempty"`
	SrcPort  uint32               `json:",omitempty"`
	DstDPID  uint64               `json:",omitempty"`
	DstPort  uint32               `json:",omitempty"`
	Host     *controller.HostInfo `json:",omitempty"`
}

// appendLocal appends a locally observed delta to this instance's own
// log and broadcasts it. Peers that miss the broadcast catch up via
// the heartbeat version-vector exchange.
func (in *Instance) appendLocal(d Delta) {
	in.mu.Lock()
	in.log[in.cfg.ID] = append(in.log[in.cfg.ID], d)
	seq := uint64(len(in.log[in.cfg.ID]))
	in.vv[in.cfg.ID] = seq
	in.mu.Unlock()
	in.broadcast(&envelope{Kind: kindDeltas, Origin: in.cfg.ID, First: seq, Deltas: []Delta{d}})
}

// ingest merges a contiguous run of origin's log starting at first.
// Already-known deltas are skipped; a gap (first beyond our next
// expected sequence) triggers an anti-entropy request back to the
// sender, which holds at least as much of that log as it relayed.
func (in *Instance) ingest(from, origin int, first uint64, deltas []Delta) {
	if origin == in.cfg.ID {
		return // own log is authoritative locally
	}
	in.mu.Lock()
	have := in.vv[origin]
	if first > have+1 {
		want := in.wantLocked()
		in.mu.Unlock()
		in.sendTo(from, &envelope{Kind: kindRequest, Want: want})
		return
	}
	var fresh []Delta
	for i, d := range deltas {
		if first+uint64(i) == have+1 {
			in.log[origin] = append(in.log[origin], d)
			have++
			fresh = append(fresh, d)
		}
	}
	in.vv[origin] = have
	in.mu.Unlock()
	for _, d := range fresh {
		in.applied.Add(1)
		in.apply(origin, d)
	}
}

// apply folds one peer-originated delta into the local NIB — unless
// this instance is itself authoritative for the switch (it owns a live
// activated connection: local observation beats replication), or the
// origin is not the switch's current lease holder (a deposed master's
// stale log must not overwrite the new owner's picture; deltas from it
// are still RETAINED in the log for version-vector continuity, just
// not applied).
func (in *Instance) apply(origin int, d Delta) {
	dpid := d.DPID
	if d.Kind == DeltaLinkUp || d.Kind == DeltaLinkDown {
		dpid = d.SrcDPID
	}
	if d.Kind == DeltaHost && d.Host != nil {
		dpid = d.Host.DPID
	}
	// A switch existing anywhere in the cluster counts as "seen": if it
	// ever fails over here it arrives carrying its old master's flows,
	// and only the reconnect path reconciles them.
	if d.Kind == DeltaSwitchUp {
		in.c.MarkSeen(dpid)
	}
	in.mu.Lock()
	authoritative := !in.ownedLocked(dpid)
	if l, ok := in.leases[dpid]; ok && authoritative {
		authoritative = l.holder == origin || in.expiredLocked(l)
	}
	in.mu.Unlock()
	if !authoritative {
		return
	}
	nib := in.c.NIB()
	switch d.Kind {
	case DeltaSwitchUp:
		if d.Features != nil {
			nib.ApplySwitch(*d.Features)
		}
	case DeltaSwitchDown:
		nib.ApplyRemoveSwitch(d.DPID)
	case DeltaPort:
		if d.Port != nil {
			nib.ApplyPort(d.DPID, *d.Port)
		}
	case DeltaLinkUp:
		nib.ApplyLink(d.SrcDPID, d.SrcPort, d.DstDPID, d.DstPort)
	case DeltaLinkDown:
		nib.ApplyRemoveLink(d.SrcDPID, d.SrcPort, d.DstDPID, d.DstPort)
	case DeltaHost:
		if d.Host != nil {
			nib.ApplyHost(*d.Host)
		}
	}
}

// wantLocked snapshots the version vector as a request payload
// (callers hold in.mu).
func (in *Instance) wantLocked() map[string]uint64 {
	want := make(map[string]uint64, len(in.vv))
	for o, s := range in.vv {
		want[strconv.Itoa(o)] = s
	}
	return want
}

// serveRequest answers an anti-entropy request: for every origin where
// our log extends past the requester's, send the missing suffix, split
// into runs that each fit one frame. This is the gossip leg — an
// instance relays logs it merely follows, so a delta reaches everyone
// even when its origin can no longer talk to them directly.
func (in *Instance) serveRequest(from int, want map[string]uint64) {
	type batch struct {
		origin int
		first  uint64
		deltas []Delta
	}
	var out []batch
	in.mu.Lock()
	for origin, log := range in.log {
		after := want[strconv.Itoa(origin)]
		if uint64(len(log)) > after {
			out = append(out, batch{origin, after + 1, append([]Delta(nil), log[after:]...)})
		}
	}
	in.mu.Unlock()
	for _, b := range out {
		for _, run := range runs(b.deltas) {
			in.sendTo(from, &envelope{Kind: kindDeltas, Origin: b.origin, First: b.first, Deltas: run})
			b.first += uint64(len(run))
		}
	}
}

// runBytes bounds the JSON of one run of deltas; the rest of a zof frame
// is left to the headers and the envelope's other fields.
const runBytes = zof.MaxMessageLen - 1<<10

// runs splits deltas into contiguous runs whose JSON fits in runBytes.
func runs(deltas []Delta) [][]Delta {
	var out [][]Delta
	start, size := 0, 0
	for i, d := range deltas {
		b, _ := json.Marshal(d) // plain data: cannot fail
		n := len(b) + 1         // and its comma
		if i > start && size+n > runBytes {
			out = append(out, deltas[start:i])
			start, size = i, 0
		}
		size += n
	}
	return append(out, deltas[start:])
}

// The observer is the instance's window into its own controller: it
// registers as a northbound app, so every event the apps see on an
// ACTIVATED (owned) switch also lands here and becomes a replicated
// delta. Standby switches post no events (deferred mastership), so an
// instance only ever narrates switches it masters — exactly the
// authority rule apply enforces on the receiving side.
type observer struct{ in *Instance }

func (o observer) Name() string { return "cluster-replicator" }

func (o observer) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	f := ev.Features
	o.in.appendLocal(Delta{Kind: DeltaSwitchUp, DPID: ev.DPID, Features: &f})
}

func (o observer) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	o.in.appendLocal(Delta{Kind: DeltaSwitchDown, DPID: ev.DPID})
}

func (o observer) PortStatus(c *controller.Controller, ev controller.PortStatusEvent) {
	p := ev.Msg.Port
	o.in.appendLocal(Delta{Kind: DeltaPort, DPID: ev.DPID, Port: &p})
}

func (o observer) LinkUp(c *controller.Controller, ev controller.LinkUp) {
	o.in.appendLocal(Delta{Kind: DeltaLinkUp,
		SrcDPID: ev.SrcDPID, SrcPort: ev.SrcPort, DstDPID: ev.DstDPID, DstPort: ev.DstPort})
}

func (o observer) LinkDown(c *controller.Controller, ev controller.LinkDown) {
	o.in.appendLocal(Delta{Kind: DeltaLinkDown,
		SrcDPID: ev.SrcDPID, SrcPort: ev.SrcPort, DstDPID: ev.DstDPID, DstPort: ev.DstPort})
}

func (o observer) HostLearned(c *controller.Controller, ev controller.HostLearned) {
	h := controller.HostInfo{MAC: packet.MAC(ev.MAC), IP: packet.IPv4Addr(ev.IP),
		DPID: ev.DPID, Port: ev.Port}
	o.in.appendLocal(Delta{Kind: DeltaHost, Host: &h})
}

// RegisterMetrics implements controller.MetricsRegistrant: the
// observer is the instance's registration vehicle, so the cluster's
// counters publish under apps.cluster-replicator.*.
func (o observer) RegisterMetrics(sc obs.Scope) { o.in.RegisterMetrics(sc) }
