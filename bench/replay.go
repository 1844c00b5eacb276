package main

import (
	"sync/atomic"
	"time"

	"repro/internal/flowtable"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// Layer replay: the workload's own generated inputs driven through one
// layer's public entry point alone.

var replaySink uint64

// layerReplay holds the per-unit costs of the layers every frame
// crosses inside a switch.
type layerReplay struct {
	decodeNS float64 // packet.Decode, per frame
	keyNS    float64 // MakeCacheKey + Hash, per frame
	cacheNS  float64 // MicroCache.LookupBatch, per frame of a burst
	tableNS  float64 // Table.Lookup, per miss
	modUS    float64 // Table.Add / DeleteStrict, per mod
}

func (rp layerReplay) store(L layerSet) {
	L.set("packet.decode_ns", rp.decodeNS)
	L.set("flowtable.key_ns", rp.keyNS)
	L.set("flowtable.cache_ns", rp.cacheNS)
	L.set("flowtable.table_ns", rp.tableNS)
	L.set("flowtable.mod_us", rp.modUS)
}

func decodeAll(frames [][]byte) []packet.Frame {
	dec := make([]packet.Frame, len(frames))
	for i, b := range frames {
		if err := packet.Decode(b, &dec[i]); err != nil {
			panic("bench: generated frame does not decode: " + err.Error())
		}
	}
	return dec
}

func replicaTable(rules []*zof.FlowMod) *flowtable.Table {
	tbl := flowtable.NewTable(0)
	now := time.Now()
	for _, r := range rules {
		// Errors are impossible here: no capacity bound, no overlap check.
		_ = tbl.Add(&flowtable.Entry{Match: r.Match, Priority: r.Priority, Actions: r.Actions}, false, now)
	}
	return tbl
}

// replayTable times Table.Lookup per miss and Table.Add/DeleteStrict
// per mod on a replica holding rules.
func replayTable(frames [][]byte, dec []packet.Frame, order []uint32, rules []*zof.FlowMod, d time.Duration) (lookupNS, modUS float64) {
	tbl := replicaTable(rules)
	now := time.Now()
	pos := 0
	lookupNS = replay(d, 2048, func(n int) {
		for i := 0; i < n; i++ {
			idx := order[pos]
			if pos++; pos == len(order) {
				pos = 0
			}
			if tbl.Lookup(&dec[idx], inPort, len(frames[idx]), now) != nil {
				replaySink++
			}
		}
	})
	m := ipv4Match(zof.MatchAll())
	m.IPDst, m.DstPrefix = packet.IPv4Addr{scratchIP, 0, 0, 1}, 32
	modNS := replay(d, 64, func(n int) {
		for i := 0; i < n; i += 2 {
			_ = tbl.Add(&flowtable.Entry{Match: m, Priority: 1}, false, now)
			tbl.DeleteStrict(m, 1)
		}
	})
	return lookupNS, modNS / 1e3
}

// replayLayers runs the five in-switch replays over the workload's
// frames in the workload's order, grouped in bursts of burst frames the
// way HandleBurst groups them.
func replayLayers(frames [][]byte, order []uint32, rules []*zof.FlowMod, burst int, d time.Duration) layerReplay {
	var rp layerReplay
	dec := decodeAll(frames)
	pos := 0
	next := func() uint32 {
		idx := order[pos]
		if pos++; pos == len(order) {
			pos = 0
		}
		return idx
	}

	var f packet.Frame
	rp.decodeNS = replay(d, 8192, func(n int) {
		for i := 0; i < n; i++ {
			_ = packet.Decode(frames[next()], &f) // decoded once already in decodeAll
		}
	})
	// The key is cut from a frame that was decoded a moment ago, as in
	// the switch: time decode + key on hot data and subtract decode.
	both := replay(d, 8192, func(n int) {
		for i := 0; i < n; i++ {
			_ = packet.Decode(frames[next()], &f)
			k := flowtable.MakeCacheKey(&f, inPort)
			replaySink += k.Hash()
		}
	})
	rp.keyNS = both - rp.decodeNS

	// Cache replica holding every flow of the workload at generation 1.
	tbl := replicaTable(rules)
	cache := flowtable.NewMicroCache(0)
	keys := make([]flowtable.CacheKey, len(frames))
	for i := range dec {
		keys[i] = flowtable.MakeCacheKey(&dec[i], inPort)
		cache.Put(keys[i], 1, tbl.Peek(&dec[i], inPort))
	}
	type group struct {
		keys   []flowtable.CacheKey
		hashes []uint64
	}
	nb := len(order) / burst
	if nb > 256 {
		nb = 256
	}
	groups := make([]group, nb)
	for b := range groups {
		seen := map[uint32]bool{}
		for j := 0; j < burst; j++ {
			idx := order[b*burst+j]
			if !seen[idx] {
				seen[idx] = true
				groups[b].keys = append(groups[b].keys, keys[idx])
				groups[b].hashes = append(groups[b].hashes, keys[idx].Hash())
			}
		}
	}
	entries := make([]*flowtable.Entry, burst)
	cached := make([]bool, burst)
	g := 0
	rp.cacheNS = replay(d, nb*burst, func(n int) {
		for done := 0; done < n; done += burst {
			gr := &groups[g]
			if g++; g == len(groups) {
				g = 0
			}
			cache.LookupBatch(1, gr.keys, gr.hashes, entries[:len(gr.keys)], cached[:len(gr.keys)])
		}
	})

	rp.tableNS, rp.modUS = replayTable(frames, dec, order, rules, d)
	return rp
}

// replayCodec times MarshalAppend + Unmarshal of one PacketIn carrying
// frame and one FlowMod, the two messages of a flow set-up; ns per
// message.
func replayCodec(frame []byte, d time.Duration) float64 {
	m := zof.MatchAll()
	m.Wildcards &^= zof.WEthSrc | zof.WEthDst
	msgs := []zof.Message{
		&zof.PacketIn{BufferID: 7, TotalLen: uint16(len(frame)), InPort: 3, Data: frame},
		&zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: 200, IdleTimeout: 300,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}},
	}
	var buf []byte
	return replay(d, 1024, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			if buf, err = zof.MarshalAppend(buf[:0], msgs[i&1], uint32(i)); err != nil {
				panic("bench: marshal: " + err.Error())
			}
			if _, _, err = zof.Unmarshal(buf); err != nil {
				panic("bench: unmarshal: " + err.Error())
			}
		}
	})
}

// replayPipe measures one batch pipe: saturated Send -> deliver (ns per
// frame) and, at window 1, the median Send -> delivery time of a single
// frame (µs): one goroutine hand-off, clocked in the deliver callback.
func replayPipe(frame []byte, d time.Duration) (perFrameNS, waitUS float64) {
	var got atomic.Uint64
	var deliveredAt atomic.Int64
	arrived := make(chan struct{}, 1)
	p := netem.NewBatchPipe(netem.PipeConfig{BurstSize: burstLen}, func(fs [][]byte) {
		deliveredAt.Store(time.Now().UnixNano())
		got.Add(uint64(len(fs)))
		select {
		case arrived <- struct{}{}:
		default:
		}
	})
	defer p.Close()
	// Saturated: keep the queue (256) at most half full so nothing tail drops.
	perFrameNS = replay(d, 4096, func(n int) {
		start := got.Load()
		sent := uint64(0)
		for sent < uint64(n) {
			if sent-(got.Load()-start) < 128 {
				if p.Send(frame) {
					sent++
				}
			} else {
				<-arrived
			}
		}
		for got.Load()-start < sent {
			<-arrived
		}
	})
	var waits []int64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		want := got.Load() + 1
		t0 := time.Now().UnixNano()
		p.Send(frame)
		for got.Load() < want {
			<-arrived
		}
		waits = append(waits, deliveredAt.Load()-t0)
	}
	waitUS, _ = latQuantiles(waits)
	return perFrameNS, waitUS
}

// replayHost measures the host stack alone: Host.SendUDP serialising a
// datagram straight into a second host's Deliver, which decodes it and
// runs OnUDP; ns per datagram.
func replayHost(payload []byte, d time.Duration) float64 {
	a := netem.NewHost("a", packet.IPv4Addr{10, 0, 0, 1})
	b := netem.NewHost("b", packet.IPv4Addr{10, 0, 0, 2})
	a.SeedARP(b.IP, b.MAC)
	a.SetTx(func(data []byte) bool { b.Deliver(data); return true })
	b.OnUDP = func(packet.IPv4Addr, uint16, uint16, []byte) { replaySink++ }
	return replay(d, 1024, func(n int) {
		for i := 0; i < n; i++ {
			a.SendUDP(b.IP, 7000, 7001, payload)
		}
	})
}
