package repro

// One testing.B benchmark per experiment of the synthetic evaluation
// suite (DESIGN.md E1-E7), plus the ablations the design calls out.
// cmd/zbench renders the same experiments as full tables; these benches
// make each one reproducible under `go test -bench`.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/flowtable"
	"repro/internal/intent"
	"repro/internal/packet"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/zof"
)

// --- E1: reactive flow setup ------------------------------------------------

// e1Session is one fake switch connected to a live controller.
type e1Session struct {
	conn *zof.Conn
	gen  *workload.FlowGen
	buf  *packet.Buffer
	next uint32
}

func newE1Session(b *testing.B, addr string, dpid uint64) *e1Session {
	b.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	conn := zof.NewConn(raw)
	if err := conn.Handshake(); err != nil {
		b.Fatal(err)
	}
	fr := &zof.FeaturesReply{DPID: dpid, NumTables: 1}
	for p := uint32(1); p <= 4; p++ {
		fr.Ports = append(fr.Ports, zof.PortInfo{No: p, Name: fmt.Sprintf("p%d", p)})
	}
	for {
		msg, h, err := conn.Receive()
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := msg.(*zof.FeaturesRequest); ok {
			if err := conn.SendXID(fr, h.XID); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	return &e1Session{conn: conn,
		gen: workload.NewFlowGen(64, 1.2, int64(dpid)),
		buf: packet.NewBuffer(256), next: 1}
}

func (s *e1Session) fire(b *testing.B) {
	spec := s.gen.Next()
	frame := spec.Frame(s.buf, 32)
	id := s.next
	s.next++
	pi := &zof.PacketIn{BufferID: id, TotalLen: uint16(len(frame)),
		InPort: 1 + id%4, Reason: zof.ReasonNoMatch, Data: frame}
	if _, err := s.conn.Send(pi); err != nil {
		b.Fatal(err)
	}
}

func (s *e1Session) await(b *testing.B) {
	for {
		msg, _, err := s.conn.Receive()
		if err != nil {
			b.Fatal(err)
		}
		switch msg.(type) {
		case *zof.FlowMod, *zof.PacketOut:
			return
		}
	}
}

// BenchmarkE1FlowSetup measures one reactive flow-setup round trip:
// packet-in to the controller's learning app, response back — the unit
// of cbench throughput. Sub-benchmarks vary the pipelining window.
func BenchmarkE1FlowSetup(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			ctl, err := controller.New(controller.Config{EventQueue: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer ctl.Close()
			ctl.Use(apps.NewLearningSwitch())
			s := newE1Session(b, ctl.Addr(), 9001)
			defer s.conn.Close()

			b.ResetTimer()
			inFlight := 0
			for i := 0; i < b.N; i++ {
				s.fire(b)
				inFlight++
				if inFlight >= window {
					s.await(b)
					inFlight--
				}
			}
			for ; inFlight > 0; inFlight-- {
				s.await(b)
			}
		})
	}
}

// --- E2: lookup scaling ------------------------------------------------------

// BenchmarkE2Lookup sweeps structure x size; the experiment's figure is
// the ns/op of each sub-benchmark.
func BenchmarkE2Lookup(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		fx := experiments.BuildLookupFixture(n, int64(n))
		now := time.Unix(0, 0)
		nf := len(fx.Frames)
		b.Run(fmt.Sprintf("linear-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fx.Linear.Lookup(fx.Frames[i%nf], 1, 64, now)
			}
		})
		b.Run(fmt.Sprintf("tuple-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fx.Tuple.Lookup(fx.Frames[i%nf], 1)
			}
		})
		b.Run(fmt.Sprintf("lpm-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fx.LPM.Lookup(fx.Addrs[i%nf])
			}
		})
		b.Run(fmt.Sprintf("exact-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fx.Exact.Get(fx.Keys[i%nf])
			}
		})
	}
}

// BenchmarkE2aMicroCache is the ablation: the authoritative table
// fronted by the microflow cache versus bare.
func BenchmarkE2aMicroCache(b *testing.B) {
	fx := experiments.BuildLookupFixture(10000, 10000)
	now := time.Unix(0, 0)
	nf := len(fx.Frames)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fx.Linear.Lookup(fx.Frames[i%nf], 1, 64, now)
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := flowtable.NewMicroCache(1 << 16)
		gen := fx.Linear.Gen()
		// Warm every microflow so the measurement reflects the steady
		// state (one authoritative lookup per flow, then cache hits).
		for _, f := range fx.Frames {
			key := flowtable.MakeCacheKey(f, 1)
			cache.Put(key, gen, fx.Linear.Lookup(f, 1, 64, now))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := fx.Frames[i%nf]
			key := flowtable.MakeCacheKey(f, 1)
			if _, ok := cache.Get(key, gen); !ok {
				e := fx.Linear.Lookup(f, 1, 64, now)
				cache.Put(key, gen, e)
			}
		}
	})
}

// --- E3: WAN TE --------------------------------------------------------------

// BenchmarkE3Utilization times one full TE solve on the WAN at the
// experiment's knee, reporting the delivered fraction and the gain
// over the shortest-path baseline as custom metrics.
func BenchmarkE3Utilization(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	var frac, gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := te.Solve(g, m, te.Config{KPaths: 4})
		if err != nil {
			b.Fatal(err)
		}
		sp := te.SolveShortestPath(g, m, 0)
		frac = alloc.DeliveredFraction()
		gain = alloc.TotalAllocated() / sp.TotalAllocated()
	}
	b.ReportMetric(frac, "delivered-frac")
	b.ReportMetric(gain, "gain-vs-sp")
}

// BenchmarkE3aKPaths is the path-diversity ablation.
func BenchmarkE3aKPaths(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				alloc, err := te.Solve(g, m, te.Config{KPaths: k})
				if err != nil {
					b.Fatal(err)
				}
				frac = alloc.DeliveredFraction()
			}
			b.ReportMetric(frac, "delivered-frac")
		})
	}
}

// --- E4: congestion-free updates ---------------------------------------------

// BenchmarkE4Update times planning one congestion-free WAN transition
// with 10% scratch, reporting the intermediate-step count.
func BenchmarkE4Update(b *testing.B) {
	g, _ := topo.WAN(1000)
	caps := update.Capacities(g)
	m1 := workload.Gravity(g, 9000, 11)
	m2 := workload.Perturb(m1, 0.8, 12)
	old, err := te.Solve(g, m1, te.Config{KPaths: 4, Headroom: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	target, err := te.Solve(g, m2, te.Config{KPaths: 4, Headroom: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (update.Planner{MaxIntermediates: 16}).Plan(old, target, caps)
		if err != nil {
			b.Fatal(err)
		}
		steps = plan.Intermediates()
	}
	b.ReportMetric(float64(steps), "intermediates")
}

// BenchmarkE4aScratch is the headroom ablation: planning cost and step
// count at different scratch settings.
func BenchmarkE4aScratch(b *testing.B) {
	g, _ := topo.WAN(1000)
	caps := update.Capacities(g)
	for _, s := range []float64{0.05, 0.20} {
		b.Run(fmt.Sprintf("scratch-%.2f", s), func(b *testing.B) {
			m1 := workload.Gravity(g, 9000, 11)
			m2 := workload.Perturb(m1, 0.8, 12)
			old, err := te.Solve(g, m1, te.Config{KPaths: 4, Headroom: s})
			if err != nil {
				b.Fatal(err)
			}
			target, err := te.Solve(g, m2, te.Config{KPaths: 4, Headroom: s})
			if err != nil {
				b.Fatal(err)
			}
			var steps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := (update.Planner{MaxIntermediates: 32}).Plan(old, target, caps)
				if err != nil {
					b.Fatal(err)
				}
				steps = plan.Intermediates()
			}
			b.ReportMetric(float64(steps), "intermediates")
		})
	}
}

// --- E5: failure recovery ----------------------------------------------------

// BenchmarkE5Recovery times one link-failure recompile event over a
// fat-tree intent mesh (down + up per iteration so state is stable).
func BenchmarkE5Recovery(b *testing.B) {
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	mgr := intent.NewManager(g, intent.InstallerFunc(func([]intent.RuleOp) error { return nil }))
	id := intent.ID(0)
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			id++
			m := zof.MatchAll()
			m.Wildcards &^= zof.WEthSrc | zof.WEthDst
			m.EthSrc[5], m.EthDst[5] = byte(i), byte(j)
			if err := mgr.Submit(intent.Intent{ID: id,
				Src:   intent.Endpoint{Node: edges[i], Port: 100},
				Dst:   intent.Endpoint{Node: edges[j], Port: 100},
				Match: m, Priority: 10}); err != nil {
				b.Fatal(err)
			}
		}
	}
	links := g.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := links[i%len(links)].Key()
		mgr.OnLinkDown(k)
		mgr.OnLinkUp(k)
	}
}

// --- E6: packet codec ----------------------------------------------------------

func buildBenchFrame(b *testing.B, payload int) []byte {
	b.Helper()
	buf := packet.NewBuffer(64)
	buf.Append(payload)
	udp := packet.UDP{SrcPort: 5353, DstPort: 53}
	udp.SerializeToWithChecksum(buf, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2})
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2}}
	ip.SerializeTo(buf)
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(buf)
	return append([]byte(nil), buf.Bytes()...)
}

// BenchmarkE6Codec covers decode, decode+flowkey and serialize at the
// experiment's frame sizes; allocs/op is the headline (must be 0).
func BenchmarkE6Codec(b *testing.B) {
	for _, size := range []int{64, 1500} {
		payload := size - 42
		wire := buildBenchFrame(b, payload)
		b.Run(fmt.Sprintf("decode-%dB", size), func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flowkey-%dB", size), func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
				k := packet.ExtractFlowKey(&f)
				_ = k.FastHash()
			}
		})
		b.Run(fmt.Sprintf("serialize-%dB", size), func(b *testing.B) {
			buf := packet.NewBuffer(64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				buf.Append(payload)
				udp := packet.UDP{SrcPort: 1, DstPort: 2}
				udp.SerializeTo(buf)
				ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
				ip.SerializeTo(buf)
				eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
				eth.SerializeTo(buf)
			}
		})
	}
}

// --- Bonus: datapath pipeline ------------------------------------------------

// BenchmarkPipelineForwarding measures the software switch's full
// receive-match-forward path with an installed flow (microflow-cache
// hot path).
func BenchmarkPipelineForwarding(b *testing.B) {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1, DropOnMiss: true})
	sw.AddPort(1, "in", 1000)
	out := sw.AddPort(2, "out", 1000)
	out.SetTx(func([]byte) {})
	var repErr *zof.Error
	sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 1, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}, 1,
		func(rep zof.Message, _ uint32) {
			if e, ok := rep.(*zof.Error); ok {
				repErr = e
			}
		})
	if repErr != nil {
		b.Fatal(repErr)
	}
	wire := buildBenchFrame(b, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandleFrame(1, wire)
	}
}

// --- E7: parallel pipeline scaling -------------------------------------------

// benchParallelSwitch builds a switch with nw disjoint worker lanes:
// worker w sends a distinct microflow on ingress port w+1, matched by a
// per-lane flow entry steering to egress 1001+w. Distinct lanes keep
// entry counters, cache shards and ports uncontended, so the benchmark
// measures pipeline scaling rather than artificial counter sharing.
func benchParallelSwitch(b *testing.B, nw int) (*dataplane.Switch, [][]byte) {
	b.Helper()
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1, DropOnMiss: true})
	frames := make([][]byte, nw)
	for w := 0; w < nw; w++ {
		in, out := uint32(w+1), uint32(1001+w)
		sw.AddPort(in, "", 1000)
		sw.AddPort(out, "", 1000).SetTx(func([]byte) {})
		m := zof.MatchAll()
		m.Wildcards &^= zof.WInPort
		m.InPort = in
		var repErr *zof.Error
		sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: 10,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(out)}}, 1,
			func(rep zof.Message, _ uint32) {
				if e, ok := rep.(*zof.Error); ok {
					repErr = e
				}
			})
		if repErr != nil {
			b.Fatal(repErr)
		}
		buf := packet.NewBuffer(64)
		buf.Append(22)
		src := packet.IPv4Addr{10, 1, byte(w >> 8), byte(w)}
		dst := packet.IPv4Addr{10, 2, byte(w >> 8), byte(w)}
		udp := packet.UDP{SrcPort: uint16(4000 + w), DstPort: 53}
		udp.SerializeToWithChecksum(buf, src, dst)
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
		ip.SerializeTo(buf)
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(buf)
		frames[w] = append([]byte(nil), buf.Bytes()...)
		sw.HandleFrame(in, frames[w]) // warm the microflow cache
	}
	return sw, frames
}

// BenchmarkE7PipelineParallel measures the lock-free datapath: N worker
// goroutines each pump their own microflow through one shared switch.
// frames/s is the headline (scaling vs workers-1); allocs/op must stay
// 0 on this single-output forward path.
func BenchmarkE7PipelineParallel(b *testing.B) {
	counts := []int{1, 4, 8, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, nw := range counts {
		if nw < 1 || seen[nw] {
			continue
		}
		seen[nw] = true
		b.Run(fmt.Sprintf("workers-%d", nw), func(b *testing.B) {
			sw, frames := benchParallelSwitch(b, nw)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < nw; w++ {
				n := b.N / nw
				if w == 0 {
					n += b.N % nw
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					in := uint32(w + 1)
					for i := 0; i < n; i++ {
						sw.HandleFrame(in, frames[w])
					}
				}(w, n)
			}
			wg.Wait()
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(b.N)/el, "frames/s")
			}
			// Scaling numbers are meaningless without knowing how many
			// procs backed them (the E7 harness blind spot): record it.
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			if runtime.NumCPU() < nw {
				b.Logf("WARNING: num_cpu=%d < workers=%d; speedup reflects timesharing, not scaling",
					runtime.NumCPU(), nw)
			}
		})
	}
}

// --- E12: burst-mode datapath --------------------------------------------------

// BenchmarkE12BurstForwarding measures the batched pipeline walk: one
// lane, bursts of B frames of one microflow through HandleBurst —
// one snapshot load, one grouped cache lookup and one aggregated
// counter update per burst. ns/op is per burst; frames/s is the
// comparable headline against BenchmarkPipelineForwarding's per-frame
// path. allocs/op must stay 0: the burst scratch is pooled.
func BenchmarkE12BurstForwarding(b *testing.B) {
	for _, burst := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("burst-%d", burst), func(b *testing.B) {
			sw, frames := benchParallelSwitch(b, 1)
			batch := make([][]byte, burst)
			for i := range batch {
				batch[i] = frames[0]
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sw.HandleBurst(1, batch)
			}
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(b.N*burst)/el, "frames/s")
			}
		})
	}
}

// BenchmarkE12RingIngress measures the full run-to-completion path:
// producer enqueues into a per-port ring, a worker drains bursts and
// walks them through the pipeline. Single lane, so producer and worker
// timeshare on a single-core host — frames/s is the end-to-end number.
func BenchmarkE12RingIngress(b *testing.B) {
	sw, frames := benchParallelSwitch(b, 1)
	wp := dataplane.NewWorkerPool(sw, dataplane.WorkerPoolConfig{Workers: 1, Burst: 32})
	r := wp.AddPort(1)
	wp.Start()
	defer wp.Stop()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for !r.Enqueue(frames[0]) {
			runtime.Gosched()
		}
	}
	wp.Flush()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "frames/s")
	}
}
