package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny is the smoke-test scale: every code path, no statistics.
var tiny = scale{
	windows:    4,
	window:     25 * time.Millisecond,
	warmup:     20 * time.Millisecond,
	setupReps:  1,
	cycle:      64,
	probe:      2 * time.Millisecond,
	replay:     2 * time.Millisecond,
	sampleRate: 8,
}

// TestSmoke runs every workload traced at tiny size and holds the
// emitted metrics against BENCHMARK.json: every declared metric exactly
// once, with the declared unit and a finite value, and nothing
// undeclared.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	var declared, coded []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	byName := map[string]runner{}
	for _, r := range runners() {
		coded = append(coded, r.name)
		byName[r.name] = r
	}
	if !reflect.DeepEqual(declared, coded) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the code has %v", declared, coded)
	}

	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Fatalf("end_to_end: BENCHMARK.json has %v, the code has %v", e2e, endToEndUnits)
	}
	if !reflect.DeepEqual(layers, perLayerUnits) {
		t.Fatalf("per_layer: BENCHMARK.json and the code disagree")
	}
	if len(e2e) != len(spec.EndToEnd) || len(layers) != len(spec.PerLayer) {
		t.Fatal("a metric is declared twice in BENCHMARK.json")
	}

	for _, name := range coded {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			res, err := byName[name].run(1, tiny, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("correctness checks failed: %v", res.Errors)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for traced, want := range map[bool]map[string]string{false: e2e, true: layers} {
				// Through the wire form, as the driver reads it.
				line, err := json.Marshal(res.contract(traced))
				if err != nil {
					t.Fatal(err)
				}
				var c contract
				if err := json.Unmarshal(line, &c); err != nil {
					t.Fatal(err)
				}
				if len(c.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", traced, len(c.Metrics), len(want))
				}
				for n, unit := range want {
					v, ok := c.Metrics[n]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not emitted", traced, n)
					case !nameRE.MatchString(n) || len(n) > 64:
						t.Errorf("metric name %q is outside the contract", n)
					case v.Unit != unit:
						t.Errorf("%s: unit %q, declared %q", n, v.Unit, unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: value %v is not finite", n, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", n, v.Value)
					}
				}
			}
		})
	}
}

// TestSeedDeterminism: the seed drives every generator; the same seed
// gives byte-identical inputs and another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	gens := map[string]func(int64) *inputs{
		"fabric_warm": genFabricWarm,
		"flow_setup":  func(s int64) *inputs { return genFlowSetup(s, 256) },
	}
	for _, wl := range switchWorkloads {
		gens[wl.name] = wl.gen
	}
	if len(gens) != len(runners()) {
		t.Fatalf("%d generators for %d workloads", len(gens), len(runners()))
	}
	seen := map[string]string{}
	for name, gen := range gens {
		a, b, c := gen(7).sha256(), gen(7).sha256(), gen(8).sha256()
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
		if other, dup := seen[a]; dup {
			t.Errorf("%s and %s share inputs", name, other)
		}
		seen[a] = name
	}
}

// TestInputsCarryNoSeed: the program under test is built from an inputs
// value and nothing else, and an inputs value has no field that could
// hold the seed or the workload's name — only generated frames, orders,
// rules and sizes.
func TestInputsCarryNoSeed(t *testing.T) {
	typ := reflect.TypeOf(inputs{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("inputs.%s is a %s; only generated slices may reach the program", f.Name, f.Type)
		}
		if n := strings.ToLower(f.Name); strings.Contains(n, "seed") || strings.Contains(n, "name") || strings.Contains(n, "workload") {
			t.Errorf("inputs.%s looks like a seed or a workload name", f.Name)
		}
	}
	// The fixture constructors take inputs (or nothing), never a seed.
	for _, fn := range []any{newSwitchFixture, buildFabric, switchWorkload.build} {
		ft := reflect.TypeOf(fn)
		for i := 0; i < ft.NumIn(); i++ {
			if k := ft.In(i).Kind(); k == reflect.Int64 || k == reflect.String {
				t.Errorf("%v takes a %s: a seed or a name could reach the program", ft, ft.In(i))
			}
		}
	}
}

func TestBestQuartile(t *testing.T) {
	vals := []float64{8, 1, 7, 2, 6, 3, 5, 4}
	if m := bestQuartile(vals, true, "x"); m.Value != 7.5 || m.Median != 4 || m.Min != 1 || m.Max != 8 {
		t.Errorf("higher-is-better: %+v", m)
	}
	if m := bestQuartile(vals, false, "x"); m.Value != 1.5 {
		t.Errorf("lower-is-better: %+v", m)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	id := tr.root("harness", "op", tr.epoch, tr.epoch.Add(100))
	tr.child(id, 2, 1, "x", "call", 10, 90)
	tr.child(id, 3, 2, "x", "inner", 20, 50)
	self := tr.selfTimes()
	if self["op"] != 20 || self["call"] != 50 || self["inner"] != 30 {
		t.Errorf("self times %v", self)
	}
}

// TestCompare: a row regresses exactly when it is worse than the base
// by more than its bound, in the metric's own direction.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, p50 float64) string {
		rep := report{Workloads: map[string]*result{"switch_fwd": {Correct: true, E2E: map[string]metric{
			"ops_per_s": {Value: ops}, "op_p50_us": {Value: p50},
			"goodput_mbps": {Value: 1}, "setup_s": {Value: 1}}}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Bounds of the test's own, so retuning BENCHMARK.json does not move it.
	var bs benchSpec
	for name, better := range map[string]string{"ops_per_s": "higher", "op_p50_us": "lower"} {
		bs.EndToEnd = append(bs.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{Name: name, Better: better, Bound: 0.1})
	}
	sb, err := json.Marshal(bs)
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.json", 1000, 10)
	for _, tc := range []struct {
		ops, p50 float64
		code     int
	}{
		{1000, 10, 0},
		{950, 10.5, 0}, // inside both bounds
		{2000, 5, 0},   // better is never a regression
		{850, 10, 1},   // throughput fell 15 %
		{1000, 12, 1},  // latency rose 20 %
	} {
		var out, errb bytes.Buffer
		if got := compareFiles(spec, base, write("new.json", tc.ops, tc.p50), &out, &errb); got != tc.code {
			t.Errorf("ops %v p50 %v: exit %d, want %d\n%s%s", tc.ops, tc.p50, got, tc.code, out.String(), errb.String())
		}
		rows := strings.Count(out.String(), "switch_fwd")
		if want := len(bs.EndToEnd); rows != want {
			t.Errorf("%d rows, want one per end-to-end metric (%d)", rows, want)
		}
	}
}

func TestSpecWithinContract(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	var hasSetup bool
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	names := sortedKeys(newLayerSet())
	if !sort.StringsAreSorted(names) || len(names) > 128 {
		t.Errorf("%d per-layer metrics", len(names))
	}
}
