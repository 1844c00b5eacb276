package dataplane

import (
	"sync"
	"time"

	"repro/internal/flowtable"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/zof"
)

// bufPool recycles frame-sized byte buffers for the copy-on-write and
// fan-out paths, so steady-state forwarding allocates nothing.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// bufGet returns a pooled buffer resliced to n bytes.
func bufGet(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func bufPut(bp *[]byte) { bufPool.Put(bp) }

// exec is one pipeline execution: the decoded frame, the pipeline
// snapshot it runs against, and (if a rewrite or fan-out forced a
// copy) the pooled buffer this execution owns. Execs are pooled so the
// hot path allocates nothing; many run concurrently, one per in-flight
// frame (group buckets get their own nested exec).
//
// Frame-data ownership: an exec starts out borrowing the caller's
// bytes and never mutates them. The first in-place rewrite copies the
// frame into a pooled buffer (ensureOwned) — move semantics for the
// common single-output forward, copy only when the pipeline actually
// writes or a group fans the frame out. Outputs hand ports a borrowed
// reference; the Port tx contract (see SetTx) forbids retaining it.
type exec struct {
	sw    *Switch
	pl    *pipeline
	frame packet.Frame
	owned *[]byte // pooled buffer this exec owns, or nil while borrowing

	// now is the burst timestamp the execution runs at; NF stages get
	// it so conntrack timestamps cost no extra clock reads.
	now time.Time

	// pkt is the nf.Packet view handed to NF stages, and vec the
	// 1-vector a mid-rule or explain-mode stage call carries it in —
	// both embedded so steering a frame into a stage allocates nothing.
	pkt nf.Packet
	vec [1]*nf.Packet

	// trace, when non-nil, puts the execution in explain mode: matches,
	// rewrites and group selection run exactly as live, but nothing
	// leaves the switch — outputs and packet-ins are recorded into the
	// trace instead of delivered, and no port or buffer state changes.
	trace *PacketTrace
}

var execPool = sync.Pool{New: func() any { return new(exec) }}

func getExec(s *Switch, pl *pipeline, now time.Time) *exec {
	x := execPool.Get().(*exec)
	x.sw, x.pl, x.owned, x.now = s, pl, nil, now
	return x
}

// release returns the exec and any owned buffer to their pools. No
// frame bytes may be referenced after release — everything sent out a
// port was either copied by the tx or fully delivered.
func (x *exec) release() {
	if x.owned != nil {
		bufPut(x.owned)
		x.owned = nil
	}
	x.pkt = nf.Packet{}
	x.sw, x.pl, x.trace = nil, nil, nil
	execPool.Put(x)
}

// ensureOwned makes data writable: if the exec already owns it, data
// is returned as-is; otherwise the bytes move into a pooled buffer.
// The decoded frame keeps aliasing the original payload bytes, which
// is sound because rewrites only edit headers (and the VLAN paths that
// change framing re-decode).
func (x *exec) ensureOwned(data []byte) []byte {
	if x.owned != nil && len(data) > 0 && len(*x.owned) > 0 && &data[0] == &(*x.owned)[0] {
		return data
	}
	bp := bufGet(len(data))
	copy(*bp, data)
	if x.owned != nil {
		bufPut(x.owned)
	}
	x.owned = bp
	return *bp
}

// reframe swaps in a pooled replacement buffer of a different size
// (VLAN push/strip), releasing the previously owned buffer if any.
// The caller has already copied what it needs out of the old bytes.
func (x *exec) reframe(bp *[]byte) []byte {
	if x.owned != nil {
		bufPut(x.owned)
	}
	x.owned = bp
	return *bp
}

// exec implements nf.Mem, lending NF stages the pooled copy-on-write
// buffer discipline of the native rewrite actions.

// EnsureOwned implements nf.Mem.
func (x *exec) EnsureOwned(data []byte) []byte { return x.ensureOwned(data) }

// Grow implements nf.Mem: an owned buffer with head fresh bytes in
// front of data (tunnel encap). The copy happens before reframe
// releases any previously owned buffer.
func (x *exec) Grow(data []byte, head int) []byte {
	bp := bufGet(len(data) + head)
	copy((*bp)[head:], data)
	return x.reframe(bp)
}

// Shrink implements nf.Mem: an owned buffer holding data[off:]
// (tunnel decap).
func (x *exec) Shrink(data []byte, off int) []byte {
	bp := bufGet(len(data) - off)
	copy(*bp, data[off:])
	return x.reframe(bp)
}

// steer is the one way into an NF stage: it points the packet view of
// every exec in xs at its current bytes in datas (index-aligned; nil
// execs, frames that died on ingress, are skipped), collects the views
// into vec and runs st over the vector. The burst loop brings a run of
// one microflow, apply and Trace a vector of one. Verdicts and the
// possibly rewritten or reframed bytes come back in each exec's pkt.
func steer(st nf.Stage, inPort uint32, xs []*exec, datas [][]byte, vec []*nf.Packet) []*nf.Packet {
	for k, x := range xs {
		if x == nil {
			continue
		}
		// Field by field: a struct literal would be built on the stack
		// and copied over, once per packet per stage.
		p := &x.pkt
		p.InPort = inPort
		p.Data = datas[k]
		p.Frame = &x.frame
		p.Mem = x
		p.Now = x.now
		p.Explain = x.trace != nil
		p.Note = ""
		p.Verdict = nf.VerdictContinue
		vec = append(vec, p)
	}
	st.ProcessBurst(vec)
	return vec
}

// runStage hands the frame to the NF stage registered under id. It
// returns the (possibly rewritten or reframed) bytes and whether the
// stage consumed the frame. A missing stage — unregistered mid-flight —
// is a pass-through: the steering rule is controller-owned intent that
// outlives the module, and fail-open keeps it inert rather than a drop.
func (x *exec) runStage(inPort uint32, data []byte, id uint32) ([]byte, bool) {
	st := x.pl.stages[id]
	if st == nil {
		if x.trace != nil {
			x.trace.Stages = append(x.trace.Stages, TraceStage{ID: id, Missing: true})
		}
		return data, false
	}
	xs, datas := [1]*exec{x}, [1][]byte{data}
	steer(st, inPort, xs[:], datas[:], x.vec[:0])
	p := &x.pkt
	if x.trace != nil {
		x.trace.Stages = append(x.trace.Stages, TraceStage{
			ID: id, Module: st.Name(), Verdict: p.Verdict.String(), Note: p.Note,
		})
		if p.Verdict == nf.VerdictDrop && x.trace.Verdict == "" {
			x.trace.Verdict = "dropped: nf " + st.Name()
		}
	}
	return p.Data, p.Verdict == nf.VerdictDrop
}

// apply executes an action list against the frame bytes. It returns
// the current frame bytes (rewrites may have moved them into an owned
// buffer) and whether the list requested resubmission to the next
// table. depth bounds group recursion.
func (x *exec) apply(inPort uint32, data []byte, acts []zof.Action, depth int) ([]byte, bool) {
	if depth > 4 {
		return data, false // group loop guard
	}
	resubmit := false
	for i := range acts {
		a := &acts[i]
		switch a.Type {
		case zof.ActOutput:
			switch a.Port {
			case zof.PortTable:
				resubmit = true
			case zof.PortController:
				maxLen := int(a.MaxLen)
				if maxLen <= 0 {
					maxLen = missSendLen
				}
				x.packetIn(inPort, data, 0, zof.ReasonAction, 0, maxLen)
			case zof.PortFlood:
				for _, p := range x.pl.portList {
					if p.no != inPort && p.Up() {
						x.deliver(p, data, "flood")
					}
				}
			case zof.PortAll:
				for _, p := range x.pl.portList {
					if p.Up() {
						x.deliver(p, data, "all")
					}
				}
			case zof.PortInPort:
				if p := x.pl.ports[inPort]; p != nil {
					x.deliver(p, data, "in_port")
				}
			default:
				if p := x.pl.ports[a.Port]; p != nil {
					x.deliver(p, data, "port")
				} else if x.trace != nil {
					x.trace.Outputs = append(x.trace.Outputs,
						TraceOutput{Port: a.Port, Kind: "port", Missing: true})
				}
			}
		case zof.ActNF:
			var dropped bool
			data, dropped = x.runStage(inPort, data, a.Port)
			if dropped {
				// The stage consumed the frame: remaining actions (and any
				// resubmit they would have requested) do not run.
				return data, false
			}
		case zof.ActGroup:
			g := x.pl.groups[a.Port]
			if g == nil {
				if x.trace != nil {
					x.trace.Groups = append(x.trace.Groups, TraceGroup{ID: a.Port, Missing: true})
				}
				continue
			}
			buckets, err := g.pick(selectHash(&x.frame), x.portUp)
			if err != nil {
				continue
			}
			if x.trace != nil {
				x.trace.noteGroup(g, buckets)
			}
			for bi := range buckets {
				// Each bucket works on its own pooled copy and nested
				// exec so rewrites do not leak between buckets or back
				// into this execution's frame.
				bx := getExec(x.sw, x.pl, x.now)
				bx.trace = x.trace
				bp := bufGet(len(data))
				copy(*bp, data)
				bx.owned = bp
				if packet.Decode(*bp, &bx.frame) == nil {
					bx.apply(inPort, *bp, buckets[bi].Actions, depth+1)
				}
				bx.release()
			}
		default:
			data = x.rewrite(data, a)
		}
	}
	return data, resubmit
}

// deliver transmits data on p — or, in explain mode, records the
// would-be transmission without touching the port.
func (x *exec) deliver(p *Port, data []byte, kind string) {
	if x.trace != nil {
		x.trace.Outputs = append(x.trace.Outputs,
			TraceOutput{Port: p.no, Kind: kind, Down: !p.Up()})
		return
	}
	p.send(data)
}

// portUp reports port liveness for fast-failover group selection,
// against this execution's pipeline snapshot.
func (x *exec) portUp(no uint32) bool {
	p := x.pl.ports[no]
	return p != nil && p.Up()
}

// miss implements the table-miss policy.
func (x *exec) miss(inPort uint32, data []byte, tableID uint8) {
	if x.sw.cfg.DropOnMiss || len(x.pl.sinks) == 0 {
		return
	}
	x.packetIn(inPort, data, tableID, zof.ReasonNoMatch, 0, missSendLen)
}

// packetIn parks the packet and notifies every controller sink. The
// carried bytes are a fresh copy — the message outlives this
// execution's buffers.
func (x *exec) packetIn(inPort uint32, data []byte, tableID, reason uint8, cookie uint64, maxLen int) {
	if x.trace != nil {
		// Explain mode: record the decision; no buffer is parked, no
		// sink notified, no counter ticked.
		x.trace.PacketIns = append(x.trace.PacketIns,
			TracePacketIn{Table: tableID, Reason: reasonName(reason)})
		return
	}
	s := x.sw
	id := s.buffers.put(inPort, data)
	carry := data
	if len(carry) > maxLen {
		carry = carry[:maxLen]
	}
	msg := &zof.PacketIn{
		BufferID: id,
		TotalLen: uint16(len(data)),
		InPort:   inPort,
		TableID:  tableID,
		Reason:   reason,
		Cookie:   cookie,
		Data:     append([]byte(nil), carry...),
	}
	s.PacketIns.Add(1)
	// Sinks serialize their own writes (the session layer holds a
	// write mutex); packet-ins from one port stay ordered because each
	// port's frames arrive from a single delivery goroutine.
	for _, fn := range x.pl.sinks {
		fn(msg)
	}
}

// runFrom pushes a decoded frame through the multi-table pipeline
// starting at table 0 with the given first-table result, the first
// skip actions of that entry already executed: 0 for a frame that has
// run nothing yet, 1 when the burst engine resumes a frame after
// vectoring its run through the rule's leading nf action.
func (x *exec) runFrom(inPort uint32, data []byte, entry *flowtable.Entry, skip int) {
	tableID := 0
	for {
		if entry == nil {
			x.miss(inPort, data, uint8(tableID))
			return
		}
		acts := entry.Actions
		if skip > 0 {
			acts = acts[skip:]
			skip = 0
		}
		var resubmit bool
		data, resubmit = x.apply(inPort, data, acts, 0)
		if !resubmit {
			return
		}
		tableID++
		if tableID >= len(x.pl.tables) {
			return
		}
		entry = x.pl.tables[tableID].Lookup(&x.frame, inPort, len(data), x.now)
	}
}
