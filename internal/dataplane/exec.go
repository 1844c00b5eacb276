package dataplane

import (
	"time"

	"repro/internal/flowtable"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/zof"
)

// exec is one pipeline execution: the decoded frame, the pipeline
// snapshot it runs against, and the two buffers a rewrite or fan-out
// copies the frame into. Execs belong to a burst, which hands them out
// and takes them back in stack order (take, pop), so the hot path
// allocates nothing; many run concurrently, one burst per in-flight
// call (group buckets take a nested exec from the same burst).
//
// Frame-data ownership: a frame's bytes are the caller's or one of its
// exec's two buffers. An exec starts out borrowing the caller's bytes
// and never mutates them. The first in-place rewrite copies the frame
// into one buffer (ensureOwned) — move semantics for the common
// single-output forward, copy only when the pipeline actually writes or
// a group fans the frame out — and an edit that changes the framing
// fills the other buffer from the current bytes (next). Outputs hand
// ports a borrowed reference; the Port tx contract (see SetTx) forbids
// retaining it.
type exec struct {
	sw    *Switch
	pl    *pipeline
	b     *burst // owner; nested bucket execs come from it
	frame packet.Frame

	// bufs are made on first use, 2 KiB each, and keep their capacity
	// for the life of the burst. own says where the frame's bytes are:
	// 0 while borrowing the caller's, else in bufs[own-1].
	bufs [2][]byte
	own  uint8

	// now is the burst timestamp the execution runs at; NF stages get
	// it so conntrack timestamps cost no extra clock reads.
	now time.Time

	// pkt is the nf.Packet view handed to NF stages, embedded so
	// entering a stage allocates nothing.
	pkt nf.Packet

	// trace, when non-nil, puts the execution in explain mode: matches,
	// rewrites and group selection run exactly as live, but nothing
	// leaves the switch — outputs and packet-ins are recorded into the
	// trace instead of delivered, no port or buffer state changes, and
	// tables are read with the counter-free Peek.
	trace *PacketTrace
}

// next makes the buffer that does not hold the frame current, sized to
// n bytes, and returns it for the caller to fill from the old bytes —
// which stay intact meanwhile, whether borrowed or in the other buffer.
func (x *exec) next(n int) []byte {
	x.own = x.own&1 + 1
	buf := x.bufs[x.own-1]
	if cap(buf) < n {
		buf = make([]byte, max(n, 2048))
	}
	x.bufs[x.own-1] = buf[:n]
	return buf[:n]
}

// ensureOwned makes data writable: bytes already in the exec's current
// buffer are returned as they are, anything else is copied into one.
// The decoded frame keeps aliasing the original payload bytes, which
// is sound because rewrites only edit headers (and the paths that
// change framing re-decode).
func (x *exec) ensureOwned(data []byte) []byte {
	if x.own != 0 && len(data) > 0 {
		if cur := x.bufs[x.own-1]; len(cur) > 0 && &data[0] == &cur[0] {
			return data
		}
	}
	buf := x.next(len(data))
	copy(buf, data)
	return buf
}

// exec implements nf.Mem, lending NF stages the copy-on-write buffer
// discipline of the native rewrite actions.

// EnsureOwned implements nf.Mem.
func (x *exec) EnsureOwned(data []byte) []byte { return x.ensureOwned(data) }

// Grow implements nf.Mem: an owned buffer with head fresh bytes in
// front of data (tunnel encap).
func (x *exec) Grow(data []byte, head int) []byte {
	buf := x.next(len(data) + head)
	copy(buf[head:], data)
	return buf
}

// Shrink implements nf.Mem: an owned buffer holding data[off:]
// (tunnel decap).
func (x *exec) Shrink(data []byte, off int) []byte {
	buf := x.next(len(data) - off)
	copy(buf, data[off:])
	return buf
}

// runStage is the one way into an NF stage: it points the exec's packet
// view at the current bytes and hands it to the stage registered under
// id. It returns the (possibly rewritten or reframed) bytes and whether the
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
	// Field by field: a struct literal would be built on the stack and
	// copied over, once per frame per stage — and would drop conn, the
	// hand-off from one stage of a rule to the next.
	p := &x.pkt
	p.InPort = inPort
	p.Data = data
	p.Frame = &x.frame
	p.Mem = x
	p.Now = x.now
	p.Explain = x.trace != nil
	p.Note = ""
	p.Verdict = nf.VerdictContinue
	st.Process(p)
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
				// Each bucket works on its own copy in a nested exec so
				// rewrites do not leak between buckets or back into this
				// execution's frame.
				bx := x.b.take(x.sw, x.pl, x.now)
				bx.trace = x.trace
				bd := bx.ensureOwned(data)
				if packet.Decode(bd, &bx.frame) == nil {
					bx.apply(inPort, bd, buckets[bi].Actions, depth+1)
				}
				x.b.pop()
			}
		default:
			data = x.rewrite(data, a)
		}
	}
	return data, resubmit
}

// deliver transmits data on p if it is up and wired, noting the frame
// on the burst for putBurst to count — or, in explain mode, records the
// would-be transmission without touching the port. The tx function must
// be done with data when it returns (see SetTx).
func (x *exec) deliver(p *Port, data []byte, kind string) {
	if x.trace != nil {
		x.trace.Outputs = append(x.trace.Outputs,
			TraceOutput{Port: p.no, Kind: kind, Down: !p.Up()})
		return
	}
	tx := p.tx.Load()
	if tx == nil || !p.up.Load() {
		p.txDropped.Add(1)
		return
	}
	x.b.noteTx(p, len(data))
	(*tx)(data)
}

// portUp reports port liveness for fast-failover group selection,
// against this execution's pipeline snapshot.
func (x *exec) portUp(no uint32) bool {
	p := x.pl.ports[no]
	return p != nil && p.Up()
}

// miss implements the table-miss policy.
func (x *exec) miss(inPort uint32, data []byte, tableID uint8) {
	drop := x.sw.cfg.DropOnMiss || len(x.pl.sinks) == 0
	if tr := x.trace; tr != nil {
		tr.Steps = append(tr.Steps, TraceStep{Table: int(tableID)})
		tr.Verdict = "packet-in: table miss"
		if drop {
			tr.Verdict = "dropped: table miss"
		}
	}
	if !drop {
		x.packetIn(inPort, data, tableID, zof.ReasonNoMatch, 0, missSendLen)
	}
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
// starting at table 0 with the given first-table result. Rewrites landed
// by apply are visible to the next table's match. In explain mode every
// table's decision is recorded as a TraceStep and later tables are read
// with Peek, so no flow or table counter moves.
func (x *exec) runFrom(inPort uint32, data []byte, entry *flowtable.Entry) {
	for tableID := 0; ; {
		if entry == nil {
			x.miss(inPort, data, uint8(tableID))
			return
		}
		var resubmit bool
		data, resubmit = x.apply(inPort, data, entry.Actions, 0)
		if x.trace != nil {
			x.trace.noteStep(tableID, entry, resubmit)
		}
		if !resubmit {
			return
		}
		if tableID++; tableID >= len(x.pl.tables) {
			if x.trace != nil {
				x.trace.Verdict = "dropped: resubmit past last table"
			}
			return
		}
		if x.trace != nil {
			entry = x.pl.tables[tableID].Peek(&x.frame, inPort)
		} else {
			entry = x.pl.tables[tableID].Lookup(&x.frame, inPort, len(data), x.now)
		}
	}
}
