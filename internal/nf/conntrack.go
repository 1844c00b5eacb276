package nf

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// ctShards is the shard count of the connection table: with a padded
// mutex per shard, 64 make contention between the ports' polling
// goroutines negligible next to the pipeline walk.
const ctShards = 64

// ConnKey is the 5-tuple identity of a tracked connection (IPv4 only —
// the emulated fabric is IPv4). It is comparable so it keys the shard
// maps directly, with no per-lookup allocation.
type ConnKey struct {
	Proto    uint8
	Src, Dst packet.IPv4Addr
	SrcPort  uint16
	DstPort  uint16
}

// Reverse returns the key of the opposite direction.
func (k ConnKey) Reverse() ConnKey {
	k.Src, k.Dst = k.Dst, k.Src
	k.SrcPort, k.DstPort = k.DstPort, k.SrcPort
	return k
}

func protoName(p uint8) string {
	switch p {
	case packet.ProtoTCP:
		return "tcp"
	case packet.ProtoUDP:
		return "udp"
	case packet.ProtoICMP:
		return "icmp"
	}
	return fmt.Sprintf("ip%d", p)
}

// String renders the tuple in originator>responder order, e.g.
// "tcp 10.0.0.1:4242>10.0.0.2:80".
func (k ConnKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d",
		protoName(k.Proto), k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// shard places both directions of a connection in the same shard, so
// a reply lookup never needs a second shard visit.
func (k ConnKey) shard() int {
	fk := packet.FlowKey{EtherType: packet.EtherTypeIPv4, Proto: k.Proto, SrcPort: k.SrcPort, DstPort: k.DstPort}
	copy(fk.SrcIP[:], k.Src[:])
	copy(fk.DstIP[:], k.Dst[:])
	return int(fk.SymmetricHash() & (ctShards - 1))
}

// keyFromFrame extracts the conntrack tuple. Only IPv4 TCP/UDP flows
// are trackable; everything else passes through untracked.
func keyFromFrame(f *packet.Frame) (ConnKey, bool) {
	if f == nil || !f.Has(packet.LayerIPv4) {
		return ConnKey{}, false
	}
	k := ConnKey{Proto: f.IPv4.Protocol, Src: f.IPv4.Src, Dst: f.IPv4.Dst}
	switch {
	case f.Has(packet.LayerTCP):
		k.SrcPort, k.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case f.Has(packet.LayerUDP):
		k.SrcPort, k.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	default:
		return ConnKey{}, false
	}
	return k, true
}

// conn is one tracked connection. The entry is created under its shard
// lock; everything touched per packet afterwards is atomic, so the
// steady-state hit path holds the shard mutex only for the map lookup.
type conn struct {
	key         ConnKey // originator direction
	created     int64   // unixnano, immutable
	lastSeen    atomic.Int64
	packets     atomic.Uint64
	bytes       atomic.Uint64
	established atomic.Bool // saw reply direction
	nat         atomic.Pointer[natBinding]
	owner       atomic.Pointer[Conntrack] // the table holding the entry; nil once Sweep removed it
}

func (c *conn) touch(now int64, bytes uint64) {
	c.lastSeen.Store(now)
	c.packets.Add(1)
	c.bytes.Add(bytes)
}

type ctShard struct {
	mu    sync.Mutex
	conns map[ConnKey]*conn
	_     [40]byte // keep shards off each other's cache lines
}

// ConntrackConfig configures a Conntrack module.
type ConntrackConfig struct {
	Name     string        // stage name; default "conntrack"
	Idle     time.Duration // idle expiry horizon; default 60s
	MaxConns int           // table bound; 0 = unbounded. Overflow passes untracked.
}

// Conntrack is a sharded, bidirectional connection-tracking stage: the
// fwstate-style flow table. A first packet creates the entry; a packet
// matching the reverse tuple lands in the same shard (symmetric shard
// hash) and flips the entry to established. Entries idle out on Sweep,
// driven by the owning switch's Tick.
type Conntrack struct {
	name string
	idle time.Duration
	max  int

	shards [ctShards]ctShard

	hits      atomic.Uint64
	misses    atomic.Uint64 // miss = entry created
	untracked atomic.Uint64 // non-IPv4/TCP/UDP frames passed through
	expired   atomic.Uint64
	full      atomic.Uint64 // creations refused by MaxConns
	entries   atomic.Int64

	// Expiry-lag accounting: how far past its deadline an entry was
	// when the sweep finally removed it. E15's churn metric.
	lagMaxNS atomic.Int64
	lagSumNS atomic.Int64
	lagN     atomic.Int64

	// onExpire runs under the shard lock as entries are removed; the
	// NAT module hooks it to release the entry's port binding.
	onExpire func(*conn)
}

// NewConntrack builds a conntrack stage.
func NewConntrack(cfg ConntrackConfig) *Conntrack {
	ct := &Conntrack{
		name: cfg.Name,
		idle: cfg.Idle,
		max:  cfg.MaxConns,
	}
	if ct.name == "" {
		ct.name = "conntrack"
	}
	if ct.idle <= 0 {
		ct.idle = 60 * time.Second
	}
	for i := range ct.shards {
		ct.shards[i].conns = make(map[ConnKey]*conn)
	}
	return ct
}

// Name implements Stage.
func (ct *Conntrack) Name() string { return ct.name }

// find returns the entry tracking k in either direction. Caller holds
// sh.mu.
func (sh *ctShard) find(k ConnKey) (c *conn, reply bool) {
	if c = sh.conns[k]; c != nil {
		return c, false
	}
	c = sh.conns[k.Reverse()]
	return c, c != nil
}

// lookup finds the entry for k in either direction, creating it when
// absent. It returns nil when the frame must pass untracked (table
// full).
func (ct *Conntrack) lookup(k ConnKey, now int64) (c *conn, reply, created bool) {
	sh := &ct.shards[k.shard()]
	sh.mu.Lock()
	c, reply = sh.find(k)
	if c == nil && (ct.max <= 0 || int(ct.entries.Load()) < ct.max) {
		c, created = &conn{key: k, created: now}, true
		c.owner.Store(ct)
		c.lastSeen.Store(now)
		sh.conns[k] = c
		ct.entries.Add(1)
	}
	sh.mu.Unlock()
	return c, reply, created
}

// peek is lookup without creation or accounting — the NAT module and
// explain mode use it.
func (ct *Conntrack) peek(k ConnKey) (c *conn, reply bool) {
	sh := &ct.shards[k.shard()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.find(k)
}

// Process implements Stage. Conntrack never drops: it observes, and
// leaves the entry it resolved on the packet for a NAT stage behind it.
func (ct *Conntrack) Process(p *Packet) {
	p.Verdict = VerdictContinue
	k, ok := keyFromFrame(p.Frame)
	if !ok {
		if p.Explain {
			p.Note = "untracked (not IPv4 TCP/UDP)"
			return
		}
		ct.untracked.Add(1)
		return
	}
	now := p.Now.UnixNano()
	if p.Explain { // recorded, not executed: no entry, no counters
		if c, reply := ct.peek(k); c != nil {
			state := "new"
			if c.established.Load() {
				state = "established"
			}
			dir := "orig"
			if reply {
				dir = "reply"
			}
			p.Note = fmt.Sprintf("%s %s %s", state, dir, c.key)
		} else {
			p.Note = "would-create " + k.String()
		}
		return
	}
	c, reply, created := ct.lookup(k, now)
	if c == nil {
		ct.full.Add(1)
		return
	}
	if created {
		ct.misses.Add(1)
	} else {
		ct.hits.Add(1)
	}
	if reply {
		c.established.Store(true)
	}
	c.touch(now, uint64(len(p.Data)))
	p.conn = c
}

// Tick implements Ticker: sweep idled-out entries.
func (ct *Conntrack) Tick(now time.Time) { ct.Sweep(now) }

// Sweep removes entries idle past the horizon and reports how many
// were removed and the worst lag past their deadline.
func (ct *Conntrack) Sweep(now time.Time) (removed int, maxLag time.Duration) {
	nowNS := now.UnixNano()
	cutoff := nowNS - ct.idle.Nanoseconds()
	for i := range ct.shards {
		sh := &ct.shards[i]
		sh.mu.Lock()
		for k, c := range sh.conns {
			last := c.lastSeen.Load()
			if last > cutoff {
				continue
			}
			delete(sh.conns, k)
			c.owner.Store(nil) // before onExpire: a holder of c must not bind it now
			removed++
			lag := nowNS - (last + ct.idle.Nanoseconds())
			if d := time.Duration(lag); d > maxLag {
				maxLag = d
			}
			ct.lagSumNS.Add(lag)
			ct.lagN.Add(1)
			for {
				m := ct.lagMaxNS.Load()
				if lag <= m || ct.lagMaxNS.CompareAndSwap(m, lag) {
					break
				}
			}
			if ct.onExpire != nil {
				ct.onExpire(c)
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		ct.entries.Add(int64(-removed))
		ct.expired.Add(uint64(removed))
	}
	return removed, maxLag
}

// Entries reports the live entry count.
func (ct *Conntrack) Entries() int { return int(ct.entries.Load()) }

// ExpiryLag reports the worst and mean lag between an entry's idle
// deadline and the sweep that actually removed it.
func (ct *Conntrack) ExpiryLag() (max, avg time.Duration) {
	max = time.Duration(ct.lagMaxNS.Load())
	if n := ct.lagN.Load(); n > 0 {
		avg = time.Duration(ct.lagSumNS.Load() / n)
	}
	return max, avg
}

// StateSummary implements Stage.
func (ct *Conntrack) StateSummary() StateSummary {
	return StateSummary{
		Entries: ct.Entries(),
		Counters: map[string]uint64{
			"hits":      ct.hits.Load(),
			"created":   ct.misses.Load(),
			"expired":   ct.expired.Load(),
			"untracked": ct.untracked.Load(),
			"full":      ct.full.Load(),
		},
	}
}

// Conns implements ConnDumper: a sorted snapshot of the live table,
// stable for REST pagination.
func (ct *Conntrack) Conns(now time.Time) []ConnInfo {
	nowNS := now.UnixNano()
	out := make([]ConnInfo, 0, ct.Entries())
	for i := range ct.shards {
		sh := &ct.shards[i]
		sh.mu.Lock()
		for _, c := range sh.conns {
			ci := ConnInfo{
				Tuple:   c.key.String(),
				State:   "new",
				Packets: c.packets.Load(),
				Bytes:   c.bytes.Load(),
				AgeMS:   (nowNS - c.created) / int64(time.Millisecond),
				IdleMS:  (nowNS - c.lastSeen.Load()) / int64(time.Millisecond),
			}
			if c.established.Load() {
				ci.State = "established"
			}
			if b := c.nat.Load(); b != nil {
				ci.NAT = fmt.Sprintf("%s:%d", b.ip, b.port)
			}
			out = append(out, ci)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple < out[j].Tuple })
	return out
}
