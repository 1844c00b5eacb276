// Package obs is the platform's unified observability layer: a central
// named-metric registry every subsystem registers its instruments into,
// a control-loop flight recorder that traces events through their
// dispatch lifecycle, and the shared snapshot types the northbound
// introspection API serves. Names are hierarchical dotted paths
// ("controller.dispatch.dropped", "dataplane.3.microcache.hits") so one
// JSON document can show the whole platform — the keynote's "network as
// a software system you can see into".
package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Metric kinds as they appear in snapshots.
const (
	KindCounter   = "counter"
	KindHistogram = "histogram"
	KindFunc      = "func" // callback gauge: value computed at snapshot time
)

// entry is one registered instrument. Exactly one of the pointers is
// set, per kind.
type entry struct {
	kind    string
	counter *Counter
	hist    *Histogram
	fn      func() int64
}

// Registry is the central name → instrument table. Registration and
// reads are safe for concurrent use from any goroutine; the instruments
// themselves are lock-free atomics (Counter, Histogram), so
// recording into a registered instrument never touches the registry
// lock. Names should be dotted hierarchical paths; registering a name
// twice replaces the previous instrument (last wins — re-registration
// happens when a subsystem restarts).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name, creating and
// registering a fresh one if absent. It panics if name holds an
// instrument of a different kind — two subsystems disagreeing on a
// name's kind is a wiring bug, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.entries[name]; e == nil {
			e = &entry{kind: KindCounter, counter: &Counter{}}
			r.entries[name] = e
		}
		r.mu.Unlock()
	}
	if e.kind != KindCounter {
		panic("obs: " + name + " registered as " + e.kind + ", not counter")
	}
	return e.counter
}

// Histogram returns the histogram registered under name, creating one
// if absent. Panics on a kind mismatch (see Counter).
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.entries[name]; e == nil {
			e = &entry{kind: KindHistogram, hist: NewHistogram()}
			r.entries[name] = e
		}
		r.mu.Unlock()
	}
	if e.kind != KindHistogram {
		panic("obs: " + name + " registered as " + e.kind + ", not histogram")
	}
	return e.hist
}

// RegisterCounter adopts an existing counter under name — how
// subsystems whose instruments predate the registry (DispatchStats,
// LivenessStats, …) join it without changing their hot paths.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	r.entries[name] = &entry{kind: KindCounter, counter: c}
	r.mu.Unlock()
}

// RegisterHistogram adopts an existing histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	r.entries[name] = &entry{kind: KindHistogram, hist: h}
	r.mu.Unlock()
}

// RegisterFunc registers a callback gauge: fn is invoked at snapshot
// (and Value) time, so live state — queue depths, table occupancy,
// connected-switch counts — needs no shadow counter. fn must be safe
// for concurrent use and must not block.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.entries[name] = &entry{kind: KindFunc, fn: fn}
	r.mu.Unlock()
}

// Unregister removes name, if present.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.entries, name)
	r.mu.Unlock()
}

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Value reads the instantaneous scalar value of name: counters read
// their atomic, func gauges invoke their callback, and
// histograms report their observation count. ok is false for an
// unregistered name.
func (r *Registry) Value(name string) (v int64, ok bool) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return 0, false
	}
	return e.value(), true
}

func (e *entry) value() int64 {
	switch e.kind {
	case KindCounter:
		return int64(e.counter.Value())
	case KindFunc:
		return e.fn()
	case KindHistogram:
		return int64(e.hist.Count())
	}
	return 0
}

// HistogramValue is the snapshot form of a latency histogram: the
// moments and quantiles an operator reads, in nanoseconds.
type HistogramValue struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// MetricValue is one instrument's snapshot: Kind plus either the scalar
// Value (counter, func) or the Hist distribution.
type MetricValue struct {
	Kind  string          `json:"kind"`
	Value int64           `json:"value"`
	Hist  *HistogramValue `json:"hist,omitempty"`
}

// Snapshot is one coherent-enough view of every registered instrument:
// each value is read atomically, though the set is not a global
// transaction (counters keep counting while the map is built).
type Snapshot map[string]MetricValue

// Snapshot captures every registered instrument. Safe to call
// concurrently with registration and recording.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	entries := make([]*entry, 0, len(r.entries))
	for n, e := range r.entries {
		names = append(names, n)
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	// Callbacks run outside the registry lock: a func gauge is free to
	// take its own subsystem's locks without ordering against Register.
	out := make(Snapshot, len(names))
	for i, n := range names {
		e := entries[i]
		mv := MetricValue{Kind: e.kind, Value: e.value()}
		if e.kind == KindHistogram {
			h := e.hist
			mv.Hist = &HistogramValue{
				Count:  h.Count(),
				MeanNS: h.Mean().Nanoseconds(),
				P50NS:  h.Quantile(0.50).Nanoseconds(),
				P95NS:  h.Quantile(0.95).Nanoseconds(),
				P99NS:  h.Quantile(0.99).Nanoseconds(),
				MaxNS:  h.Max().Nanoseconds(),
			}
			mv.Value = int64(h.Count())
		}
		out[n] = mv
	}
	return out
}

// MarshalJSON renders the registry as its snapshot — a *Registry can be
// handed straight to an encoder.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// Scope is a prefixed view of a registry: a subsystem holds a scope and
// registers short local names ("hits", "latency") that land under the
// scope's dotted prefix. Scopes are values; copying is free.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a view of r under prefix (no trailing dot).
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Scope nests a sub-prefix under this scope.
func (s Scope) Scope(prefix string) Scope {
	return Scope{r: s.r, prefix: s.prefix + "." + prefix}
}

// Counter is Registry.Counter under the scope prefix.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + "." + name) }

// Histogram is Registry.Histogram under the scope prefix.
func (s Scope) Histogram(name string) *Histogram {
	return s.r.Histogram(s.prefix + "." + name)
}

// RegisterCounter adopts c under the scope prefix.
func (s Scope) RegisterCounter(name string, c *Counter) {
	s.r.RegisterCounter(s.prefix+"."+name, c)
}

// RegisterHistogram adopts h under the scope prefix.
func (s Scope) RegisterHistogram(name string, h *Histogram) {
	s.r.RegisterHistogram(s.prefix+"."+name, h)
}

// RegisterFunc registers a callback gauge under the scope prefix.
func (s Scope) RegisterFunc(name string, fn func() int64) {
	s.r.RegisterFunc(s.prefix+"."+name, fn)
}

// Unregister removes name under the scope prefix, if present.
func (s Scope) Unregister(name string) { s.r.Unregister(s.prefix + "." + name) }

// Observe is shorthand for Histogram(name).Observe(d).
func (s Scope) Observe(name string, d time.Duration) { s.Histogram(name).Observe(d) }
