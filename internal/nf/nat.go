package nf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// natBinding is one allocated public endpoint. It is published on the
// conntrack entry via an atomic pointer, so the established-path
// translation is a single load — no NAT lock.
type natBinding struct {
	ip    packet.IPv4Addr
	port  uint16
	proto uint8
	c     *conn
}

// natKey indexes the reverse (inbound) map: full-cone style, keyed by
// protocol and public port only.
type natKey struct {
	proto uint8
	port  uint16
}

// NATConfig configures a stateful SNAT stage.
type NATConfig struct {
	Name     string // stage name; default "nat"
	CT       *Conntrack
	PublicIP packet.IPv4Addr
	PortLo   uint16 // inclusive; default 20000
	PortHi   uint16 // inclusive; default 60000
}

// NAT is a port-allocating source NAT riding conntrack entries: the
// outbound direction rewrites src to PublicIP:allocated-port, the
// inbound direction (dst == PublicIP) rewrites back to the private
// endpoint recorded on the connection. Bindings are released when the
// underlying conntrack entry idles out (onExpire hook), so NAT state
// inherits conntrack's expiry story instead of inventing its own.
type NAT struct {
	name     string
	ct       *Conntrack
	publicIP packet.IPv4Addr

	mu     sync.Mutex
	free   []uint16
	byPort map[natKey]*natBinding

	translated atomic.Uint64 // outbound frames rewritten
	inbound    atomic.Uint64 // inbound frames rewritten back
	allocated  atomic.Uint64 // bindings ever allocated
	released   atomic.Uint64 // bindings released by expiry
	exhausted  atomic.Uint64 // outbound drops: port pool empty
	unbound    atomic.Uint64 // outbound drops: no conntrack entry
	refused    atomic.Uint64 // inbound drops: no binding for port
	untracked  atomic.Uint64 // non-IPv4/TCP/UDP passed through
}

// NewNAT builds a NAT stage over ct and hooks its expiry so idled-out
// connections return their public port to the pool.
func NewNAT(cfg NATConfig) *NAT {
	n := &NAT{
		name:     cfg.Name,
		ct:       cfg.CT,
		publicIP: cfg.PublicIP,
		byPort:   make(map[natKey]*natBinding),
	}
	if n.name == "" {
		n.name = "nat"
	}
	lo, hi := cfg.PortLo, cfg.PortHi
	if lo == 0 {
		lo = 20000
	}
	if hi == 0 {
		hi = 60000
	}
	n.free = make([]uint16, 0, int(hi)-int(lo)+1)
	for p := int(hi); p >= int(lo); p-- { // pop() hands out lo first
		n.free = append(n.free, uint16(p))
	}
	n.ct.onExpire = n.release
	return n
}

// Name implements Stage.
func (n *NAT) Name() string { return n.name }

// release is the conntrack onExpire hook; it runs under the expiring
// entry's shard lock, so nothing here may call back into conntrack.
// The binding is read under n.mu: Sweep disowned c first, so a bind
// that got in before is seen here and a later one sees no owner.
func (n *NAT) release(c *conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b := c.nat.Load(); b != nil && n.byPort[natKey{b.proto, b.port}] == b {
		delete(n.byPort, natKey{b.proto, b.port})
		n.free = append(n.free, b.port)
		n.released.Add(1)
	}
}

// bind allocates (or finds, if a racing frame won) the binding for c.
// An entry Sweep removed meanwhile is not bound: release has run or is
// waiting for n.mu, and would never see a port handed out now.
func (n *NAT) bind(c *conn, proto uint8) natPlan {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.owner.Load() == nil {
		return natPlan{drop: &n.unbound}
	}
	if b := c.nat.Load(); b != nil {
		return natPlan{out: b}
	}
	if len(n.free) == 0 {
		return natPlan{drop: &n.exhausted}
	}
	port := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	b := &natBinding{ip: n.publicIP, port: port, proto: proto, c: c}
	n.byPort[natKey{proto, port}] = b
	c.nat.Store(b)
	n.allocated.Add(1)
	return natPlan{out: b}
}

// natPlan is what resolve decided for a packet and apply carries out.
// drop and pass name the counter to move for a frame dropped or passed
// untouched; all nil means pass uncounted.
type natPlan struct {
	drop *atomic.Uint64
	pass *atomic.Uint64
	out  *natBinding // rewrite src -> public (outbound)
	in   *natBinding // rewrite dst -> private (inbound)
}

func (n *NAT) resolve(p *Packet) natPlan {
	k, ok := keyFromFrame(p.Frame)
	if !ok {
		if p.Explain {
			p.Note = "untracked (not IPv4 TCP/UDP)"
		}
		return natPlan{pass: &n.untracked}
	}
	if k.Dst == n.publicIP { // inbound: un-NAT toward the private host
		n.mu.Lock()
		b := n.byPort[natKey{k.Proto, k.DstPort}]
		n.mu.Unlock()
		if b == nil {
			if p.Explain {
				p.Note = fmt.Sprintf("no binding for %s:%d, drop", protoName(k.Proto), k.DstPort)
			}
			return natPlan{drop: &n.refused}
		}
		if p.Explain {
			p.Note = fmt.Sprintf("rev %s:%d -> %s:%d", n.publicIP, b.port, b.c.key.Src, b.c.key.SrcPort)
		}
		return natPlan{in: b}
	}
	// Outbound: the conntrack stage ahead of us owns entry creation and
	// left the entry on the packet. Trust it only when a lookup would
	// return it: still in our conntrack's table, and the same tuple in
	// either direction (no rewrite between the stages).
	c := p.conn
	if c == nil || c.owner.Load() != n.ct || (c.key != k && c.key != k.Reverse()) {
		c, _ = n.ct.peek(k)
	}
	if c == nil {
		if p.Explain {
			p.Note = "no conntrack entry, drop"
		}
		return natPlan{drop: &n.unbound}
	}
	b := c.nat.Load()
	if b == nil {
		if p.Explain { // recorded, not executed: no allocation
			p.Note = "would-allocate " + n.publicIP.String() + " port"
			return natPlan{}
		}
		return n.bind(c, k.Proto)
	}
	if p.Explain {
		p.Note = fmt.Sprintf("snat %s:%d -> %s:%d", k.Src, k.SrcPort, b.ip, b.port)
	}
	return natPlan{out: b}
}

// apply executes the plan on one packet.
func (n *NAT) apply(p *Packet, pl natPlan) Verdict {
	switch {
	case pl.drop != nil:
		if !p.Explain {
			pl.drop.Add(1)
		}
		return VerdictDrop
	case pl.pass != nil:
		if !p.Explain {
			pl.pass.Add(1)
		}
	case pl.out != nil:
		p.Data = p.Mem.EnsureOwned(p.Data)
		p.Frame.SetIPv4Src(p.Data, pl.out.ip)
		p.Frame.SetL4Src(p.Data, pl.out.port)
		if !p.Explain {
			n.translated.Add(1)
		}
	case pl.in != nil:
		b := pl.in
		p.Data = p.Mem.EnsureOwned(p.Data)
		p.Frame.SetIPv4Dst(p.Data, b.c.key.Src)
		p.Frame.SetL4Dst(p.Data, b.c.key.SrcPort)
		if !p.Explain {
			// The inbound path bypasses the conntrack stage, so the
			// reply traffic keeps the entry alive from here.
			b.c.established.Store(true)
			b.c.touch(p.Now.UnixNano(), uint64(len(p.Data)))
			n.inbound.Add(1)
		}
	}
	return VerdictContinue
}

// Process implements Stage.
func (n *NAT) Process(p *Packet) { p.Verdict = n.apply(p, n.resolve(p)) }

// Bindings reports the live binding count.
func (n *NAT) Bindings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.byPort)
}

// StateSummary implements Stage.
func (n *NAT) StateSummary() StateSummary {
	return StateSummary{
		Entries: n.Bindings(),
		Counters: map[string]uint64{
			"translated": n.translated.Load(),
			"inbound":    n.inbound.Load(),
			"allocated":  n.allocated.Load(),
			"released":   n.released.Load(),
			"exhausted":  n.exhausted.Load(),
			"unbound":    n.unbound.Load(),
			"refused":    n.refused.Load(),
			"untracked":  n.untracked.Load(),
		},
	}
}

var _ Ticker = (*Conntrack)(nil)
