package main

import (
	"fmt"
	"math"
	"sort"
)

// The metric vocabulary. BENCHMARK.json declares the same names; the
// smoke test holds the two lists equal.

var endToEndUnits = map[string]string{
	"ops_per_s":    "1/s",
	"op_p50_us":    "us",
	"goodput_mbps": "Mbit/s",
	"setup_s":      "s",
}

var perLayerUnits = map[string]string{
	"packet.decode_ns":            "ns",
	"flowtable.key_ns":            "ns",
	"flowtable.cache_ns":          "ns",
	"flowtable.table_ns":          "ns",
	"flowtable.mod_us":            "us",
	"flowtable.cache_hit_ratio":   "ratio",
	"flowtable.lookups":           "count",
	"flowtable.matches":           "count",
	"dataplane.burst_ns":          "ns",
	"dataplane.exec_ns":           "ns",
	"dataplane.flowmod_us":        "us",
	"dataplane.packet_ins":        "count",
	"dataplane.flows":             "count",
	"nf.conntrack_ns":             "ns",
	"nf.nat_ns":                   "ns",
	"nf.encap_ns":                 "ns",
	"nf.conns_created":            "count",
	"nf.conns_expired":            "count",
	"nf.nat_exhausted":            "count",
	"nf.expiry_lag_ms":            "ms",
	"netem.pipe_ns":               "ns",
	"netem.pipe_wait_us":          "us",
	"netem.host_ns":               "ns",
	"netem.batch_fill":            "count",
	"netem.link_drops":            "count",
	"zof.codec_ns":                "ns",
	"zof.msgs_per_setup":          "count",
	"zof.flushes_per_setup":       "count",
	"zof.barrier_rtt_us":          "us",
	"controller.queue_wait_us":    "us",
	"controller.handler_us":       "us",
	"controller.pktin_per_setup":  "count",
	"controller.dispatch_dropped": "count",
	"controller.cbench_rps":       "1/s",
	"apps.routing_us":             "us",
	"apps.routes_per_setup":       "count",
	"topo.spf_us":                 "us",
	"harness.op_p99_us":           "us",
	"harness.allocs_per_op":       "count",
	"harness.gc_cycles":           "count",
	"harness.cpu_util":            "ratio",
	"harness.calib_mops":          "Mops/s",
	"harness.budget_residual_pct": "%",
	"harness.trace_overhead_pct":  "%",
	"harness.window_spread_pct":   "%",
}

// layerSet holds the per-layer metrics of one traced run. Every name in
// perLayerUnits is present; a layer that is not on the workload's path
// contributes 0 to it and reads 0.
type layerSet map[string]metric

func newLayerSet() layerSet {
	L := make(layerSet, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		L[name] = scalar(0, unit)
	}
	return L
}

func (L layerSet) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	L[name] = scalar(v, unit)
}

// result is one workload's run.
type result struct {
	Workload     string            `json:"workload"`
	InputsSHA256 string            `json:"inputs_sha256"`
	Correct      bool              `json:"correct"`
	Errors       []string          `json:"errors,omitempty"`
	Attempted    uint64            `json:"attempted"`
	Failed       uint64            `json:"failed"`
	FailedRatio  float64           `json:"failed_ratio"`
	E2E          map[string]metric `json:"end_to_end"`
	Layers       layerSet          `json:"per_layer,omitempty"`
	CalibMops    metric            `json:"calib_mops"`

	tail    metric // op_p99_us over the untraced windows
	windows []window
	setups  []float64 // seconds
}

func newResult(name string) *result {
	return &result{Workload: name, Correct: true, Layers: newLayerSet()}
}

func (r *result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// burstNS is the best-quartile mean time per frame inside the timed
// call, over every window that timed its ops.
func (r *result) burstNS(framesPerOp float64) float64 {
	var per []float64
	for _, w := range r.windows {
		if w.hasLat {
			per = append(per, w.meanNS/framesPerOp)
		}
	}
	return bestQuartile(per, false, "ns").Value
}

// finish folds the windows into the end-to-end metrics and the
// harness's own.
func (r *result) finish(cal *calib, u0, u1 usage) {
	var ops uint64
	for _, w := range r.windows {
		r.Attempted += w.attempted
		r.Failed += w.failed
		ops += w.ops
	}
	if r.Attempted > 0 {
		r.FailedRatio = float64(r.Failed) / float64(r.Attempted)
	}
	if r.Failed > 0 {
		r.fail(fmt.Errorf("%d of %d ops failed", r.Failed, r.Attempted))
	}
	// The tail is reported, but not as a bounded end-to-end metric: on
	// switch_fwd, which has no slow class of burst of its own, p99 sits
	// where this box's interference begins and moved 13-36 % from run to
	// run however it was estimated.
	r.E2E, r.tail = endToEnd(r.windows, r.setups)
	r.Layers.set("harness.op_p99_us", r.tail.Value)
	r.CalibMops = bestQuartile(cal.mops, true, perLayerUnits["harness.calib_mops"])
	r.Layers.setUsage(u0, u1, ops)
	r.Layers.set("harness.calib_mops", r.CalibMops.Value)
	r.Layers.set("harness.window_spread_pct", r.E2E["ops_per_s"].SpreadPct)

	// Tracing overhead: windows alternate sampled and unsampled.
	var on, off []float64
	for _, w := range r.windows {
		if !w.hasRate || w.dur <= 0 {
			continue
		}
		v := float64(w.ops) / w.dur.Seconds()
		if w.traced {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		a, b := bestQuartile(off, true, "").Value, bestQuartile(on, true, "").Value
		r.Layers.set("harness.trace_overhead_pct", (a-b)/a*100)
	}
}

// contract is the one JSON object the driver reads from the last line.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract(traced bool) contract {
	c := contract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractValue{}}
	src := r.E2E
	if traced {
		src = r.Layers
	}
	for name, m := range src {
		c.Metrics[name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
