package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// scale sizes a run. The full scale is derived from -seconds; the smoke
// test uses a tiny one. Nothing in it reaches the program under test.
type scale struct {
	windows    int           // measurement windows per run
	window     time.Duration // length of one window
	warmup     time.Duration // untimed, before the first window
	setupReps  int           // set-ups per run; setup_s is their median
	cycle      int           // flow_setup: set-ups per cycle
	probe      time.Duration // traced flow_setup: time spent applying scratch FlowMods
	replay     time.Duration // traced run: time given to each layer replay
	sampleRate int           // traced run: every n-th op gets a root span
}

// probeBatch is the add/delete pairs the probe times as one unit, so
// that two clock reads are spread over 64 sub-microsecond FlowMods.
const probeBatch = 32

func fullScale(seconds int, traced bool) scale {
	sc := scale{
		windows:    24,
		window:     time.Duration(seconds) * time.Second / 24,
		warmup:     2 * time.Second,
		setupReps:  9,
		cycle:      2048,
		probe:      250 * time.Millisecond,
		replay:     200 * time.Millisecond,
		sampleRate: 61, // prime: 64 would land on the first burst after every 512-burst FlowMod period
	}
	if traced {
		// The traced run spends half its time in windows and the other
		// half in layer replays and ablations.
		sc.windows = 12
		sc.warmup = time.Second
	}
	return sc
}

// metric is one reported number with the window statistics that make
// the estimator auditable.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// SpreadPct is |value - median| / value: how far the best-quartile
	// mean sits from the median of the same windows.
	SpreadPct float64 `json:"spread_pct"`
}

// median reports the plain median (setup_s), with min and max beside it.
func median(vals []float64, unit string) metric {
	m, _ := medianSorted(vals, unit)
	return m
}

// medianSorted is median plus the ascending copy it worked on.
func medianSorted(vals []float64, unit string) (metric, []float64) {
	if len(vals) == 0 {
		return metric{Unit: unit}, nil
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := s[(len(s)-1)/2] // nearest rank
	return metric{Value: mid, Unit: unit, N: len(s), Min: s[0], Max: s[len(s)-1], Median: mid}, s
}

// bestQuartile is the run's estimator for a timing metric: the mean of
// the best quarter of the per-window values. Interference from
// neighbours only ever slows a window, so the best windows are the
// ones closest to what the code costs.
func bestQuartile(vals []float64, higherBetter bool, unit string) metric {
	m, s := medianSorted(vals, unit)
	if len(s) == 0 {
		return m
	}
	k := (len(s) + 3) / 4
	best := s[:k]
	if higherBetter {
		best = s[len(s)-k:]
	}
	m.Value = 0
	for _, v := range best {
		m.Value += v
	}
	m.Value /= float64(k)
	if m.Value != 0 {
		m.SpreadPct = math.Abs(m.Value-m.Median) / m.Value * 100
	}
	return m
}

func scalar(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, Median: v, Min: v, Max: v, N: 1}
}

// latQuantiles sorts ns samples in place and returns p50 and p99 in µs.
func latQuantiles(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ns)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(ns[i]) / 1e3
	}
	return at(0.5), at(0.99)
}

// window is the outcome of one measurement window.
type window struct {
	dur       time.Duration
	ops       uint64 // units of work completed (frames, echoes, set-ups)
	bytes     uint64 // useful bytes delivered
	attempted uint64 // ops started
	failed    uint64 // ops that missed their deadline or egress
	hasRate   bool   // ops/bytes/dur are a throughput measurement
	traced    bool   // spans were sampled in this window

	hasLat       bool    // p50us/p99us/meanNS are set
	p50us, p99us float64 // per-op latency; a failed op enters at its timeout
	meanNS       float64 // mean per-op latency
	flowmods     []int64 // inline FlowMods, ns per mod (mean of an add/delete pair)
}

// setLat folds the window's latency samples (ns) into its quantiles.
// The sample buffer is the caller's to reuse afterwards.
func (w *window) setLat(ns []int64) {
	if len(ns) == 0 {
		return
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	w.meanNS = float64(sum) / float64(len(ns))
	w.p50us, w.p99us = latQuantiles(ns)
	w.hasLat = true
}

// endToEnd folds the untraced windows into the end-to-end metrics every
// workload reports, and the tail (op_p99_us), which is reported without
// a bound. setups are in seconds.
func endToEnd(ws []window, setups []float64) (e2e map[string]metric, tail metric) {
	var rate, good, p50s, p99s []float64
	for i := range ws {
		w := &ws[i]
		if w.traced {
			continue
		}
		if w.hasRate && w.dur > 0 {
			rate = append(rate, float64(w.ops)/w.dur.Seconds())
			good = append(good, float64(w.bytes)*8/w.dur.Seconds()/1e6)
		}
		if w.hasLat {
			p50s, p99s = append(p50s, w.p50us), append(p99s, w.p99us)
		}
	}
	u := endToEndUnits
	return map[string]metric{
		"ops_per_s":    bestQuartile(rate, true, u["ops_per_s"]),
		"goodput_mbps": bestQuartile(good, true, u["goodput_mbps"]),
		"op_p50_us":    bestQuartile(p50s, false, u["op_p50_us"]),
		"setup_s":      median(setups, u["setup_s"]),
	}, bestQuartile(p99s, false, perLayerUnits["harness.op_p99_us"])
}

// timedSetup runs one set-up and records how long it took. The
// collector runs before the set-up and is held off during it: set-up
// allocates tens of megabytes in milliseconds, and where the cycles fell
// moved miss_storm's set-up time between 21 ms and 35 ms from one
// quarter of an hour to the next (it is 7 ms without them). setup_s is
// therefore the set-up's own work; what it leaves for the collector
// shows in harness.gc_cycles.
func timedSetup(res *result, setup func() error) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	err := setup()
	res.setups = append(res.setups, time.Since(t0).Seconds())
	return err
}

// calib is a fixed arithmetic-and-memory kernel. Its rate moves with
// the machine, not with the program, so a fall in every metric that
// calib shares is drift and one it does not share is a regression.
type calib struct {
	buf  []uint64
	mops []float64
}

func newCalib() *calib { return &calib{buf: make([]uint64, 1<<15)} } // 256 KiB: past L1, inside L2

var calibSink uint64

func (c *calib) run() {
	const iters = 1 << 20
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(c.buf)-1)
		c.buf[j] += x
	}
	d := time.Since(t0)
	calibSink += x
	c.mops = append(c.mops, iters/d.Seconds()/1e6)
}

// usage snapshots what the harness reports about its own process.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// setUsage reports the benchmark's own health over [a, b].
func (L layerSet) setUsage(a, b usage, ops uint64) {
	L.set("harness.gc_cycles", float64(b.numGC-a.numGC))
	if wall := b.wall.Sub(a.wall); wall > 0 {
		L.set("harness.cpu_util", float64(b.cpu-a.cpu)/float64(wall)/float64(runtime.NumCPU()))
	}
	if ops > 0 {
		L.set("harness.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops))
	}
}

// span is one traced interval. Spans of one op share Trace; Parent is
// the ID of the span that caused this one (0 for the root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Only the generator
// goroutine appends.
type tracer struct {
	epoch time.Time
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// root opens a new trace and returns its id.
func (t *tracer) root(layer, name string, start, end time.Time) uint64 {
	t.next++
	t.spans = append(t.spans, span{Trace: t.next, ID: 1, Layer: layer, Name: name,
		Start: t.since(start), End: t.since(end)})
	return t.next
}

func (t *tracer) child(trace uint64, id, parent uint32, layer, name string, start, end int64) {
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start, End: end})
}

// selfTimes returns, per span name, the mean self time in ns: a span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	type key struct {
		trace uint64
		id    uint32
	}
	covered := make(map[key]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[key{s.Trace, s.Parent}] += s.End - s.Start
		}
	}
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered[key{s.Trace, s.ID}]
		sum[s.Name] += float64(self)
		n[s.Name]++
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace out: %w", err)
	}
	return f.Close()
}

// replay times fn(n) — n units of work through one layer's public entry
// point — in chunks for about d, and returns the best-quartile ns per
// unit. fn must do exactly n units.
func replay(d time.Duration, n int, fn func(n int)) float64 {
	fn(n) // warm caches and pools
	var per []float64
	deadline := time.Now().Add(d)
	for len(per) < 8 || time.Now().Before(deadline) {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
		if len(per) >= 4096 {
			break
		}
	}
	return bestQuartile(per, false, "ns").Value
}
