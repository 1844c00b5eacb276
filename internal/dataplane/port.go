// Package dataplane implements the zen software switch: a multi-table
// match-action pipeline with group tables, packet buffering, port
// counters and a zof control-channel session. It is the forwarding
// plane every experiment runs on, substituting for hardware OpenFlow
// switches while preserving the control-channel semantics.
package dataplane

import (
	"sync"
	"sync/atomic"

	"repro/internal/flowtable"
	"repro/internal/zof"
)

// Port is one switch port. Tx is the wire: the emulator points it at
// the far end of the link. Ports are created up; SetDown simulates
// link failure.
//
// Link state, counters and the tx function are atomics, so concurrent
// pipeline executions touching different ports never share a lock, and
// ones sharing an egress port only share counter cache lines. The
// counters move once per burst, not per frame (see runBurst, putBurst).
type Port struct {
	no uint32 // immutable

	// cache memoizes table-0 lookups for the microflows arriving here.
	// The goroutine polling the port is the only one that takes its
	// lock, unless two callers share an ingress port.
	cache *flowtable.MicroCache

	mu   sync.Mutex // guards info (descriptive state, slow path)
	info zof.PortInfo

	up atomic.Bool                  // mirrors info.Up()
	tx atomic.Pointer[func([]byte)] // nil until wired

	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
	rxDropped atomic.Uint64
	txPackets atomic.Uint64
	txBytes   atomic.Uint64
	txDropped atomic.Uint64
}

// NewPort builds a port; tx may be nil until wired.
func NewPort(info zof.PortInfo, tx func([]byte)) *Port {
	p := &Port{no: info.No, info: info, cache: flowtable.NewMicroCache(0)}
	p.up.Store(info.Up())
	if tx != nil {
		p.tx.Store(&tx)
	}
	return p
}

// No returns the port number.
func (p *Port) No() uint32 { return p.no }

// Info returns a snapshot of the port description.
func (p *Port) Info() zof.PortInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.info
}

// Stats returns a snapshot of the counters.
func (p *Port) Stats() zof.PortStats {
	return zof.PortStats{
		PortNo:    p.no,
		RxPackets: p.rxPackets.Load(),
		TxPackets: p.txPackets.Load(),
		RxBytes:   p.rxBytes.Load(),
		TxBytes:   p.txBytes.Load(),
		RxDropped: p.rxDropped.Load(),
		TxDropped: p.txDropped.Load(),
	}
}

// SetTx wires the transmit side. The tx function is handed frames the
// pipeline still owns: it must not retain or mutate the slice after
// returning — copy first if delivery is queued (the emulator's Pipe
// does exactly that).
func (p *Port) SetTx(tx func([]byte)) {
	if tx == nil {
		p.tx.Store(nil)
		return
	}
	p.tx.Store(&tx)
}

// SetDown changes the link state, returning true if it changed.
func (p *Port) SetDown(down bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	was := p.info.State&zof.PortStateLinkDown != 0
	if was == down {
		return false
	}
	if down {
		p.info.State |= zof.PortStateLinkDown
	} else {
		p.info.State &^= zof.PortStateLinkDown
	}
	p.up.Store(p.info.Up())
	return true
}

// Up reports link state.
func (p *Port) Up() bool { return p.up.Load() }
