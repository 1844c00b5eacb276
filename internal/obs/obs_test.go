package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b.c")
	c1.Add(3)
	if c2 := r.Counter("a.b.c"); c2 != c1 {
		t.Fatal("Counter did not return the registered instrument")
	}
	h := r.Histogram("a.h")
	h.Observe(time.Millisecond)
	r.RegisterFunc("a.f", func() int64 { return 42 })

	if v, ok := r.Value("a.b.c"); !ok || v != 3 {
		t.Errorf("counter value = %d, %v", v, ok)
	}
	if v, ok := r.Value("a.f"); !ok || v != 42 {
		t.Errorf("func value = %d, %v", v, ok)
	}
	if v, ok := r.Value("a.h"); !ok || v != 1 {
		t.Errorf("histogram value = %d, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value on unregistered name reported ok")
	}
	names := r.Names()
	want := []string{"a.b.c", "a.f", "a.h"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram on a counter name did not panic")
		}
	}()
	r.Histogram("x")
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h").Observe(2 * time.Millisecond)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]MetricValue
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["c"].Kind != KindCounter || snap["c"].Value != 5 {
		t.Errorf("c = %+v", snap["c"])
	}
	hv := snap["h"]
	if hv.Kind != KindHistogram || hv.Hist == nil || hv.Hist.Count != 1 {
		t.Errorf("h = %+v", hv)
	}
	if hv.Hist.P50NS < int64(2*time.Millisecond) || hv.Hist.P50NS > int64(8*time.Millisecond) {
		t.Errorf("p50 = %d outside bucket bound", hv.Hist.P50NS)
	}
}

// TestObsRegistryConcurrency is the register-while-snapshot hammer: run
// with -race. Writers register and bump fresh and shared names while
// readers snapshot, list and read continuously.
func TestObsRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter(fmt.Sprintf("w%d.c%d", w, i)).Inc()
				r.Counter("shared.count").Inc()
				r.Histogram("shared.lat").Observe(time.Duration(i) * time.Microsecond)
				r.RegisterFunc(fmt.Sprintf("w%d.f%d", w, i), func() int64 { return int64(i) })
				sc := r.Scope(fmt.Sprintf("w%d.scope", w))
				sc.Counter("c").Inc()
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if v, ok := snap["shared.count"]; ok && v.Value < 0 {
					t.Error("negative counter")
					return
				}
				r.Names()
				r.Value("shared.count")
				_, _ = json.Marshal(r)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if v, _ := r.Value("shared.count"); v != writers*perWriter {
		t.Errorf("shared.count = %d, want %d", v, writers*perWriter)
	}
	// writers*(counter+func) + shared counter + shared hist + per-writer scope counter
	want := writers*perWriter*2 + 2 + writers
	if got := r.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("controller").Scope("app")
	s.Counter("hits").Add(2)
	if v, ok := r.Value("controller.app.hits"); !ok || v != 2 {
		t.Errorf("scoped counter = %d, %v", v, ok)
	}
	s.Observe("lat", time.Millisecond)
	if v, _ := r.Value("controller.app.lat"); v != 1 {
		t.Errorf("scoped histogram count = %d", v)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	rec := NewFlightRecorder(8)
	rec.SetMode(TraceFull)
	for i := 0; i < 20; i++ {
		rec.Record(TraceEvent{Kind: "packet_in", DPID: uint64(i)})
	}
	if got := rec.Recorded(); got != 20 {
		t.Fatalf("Recorded = %d", got)
	}
	evs := rec.Events(0)
	if len(evs) != 8 {
		t.Fatalf("Events(0) returned %d, want 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq || ev.DPID != wantSeq {
			t.Errorf("evs[%d] = seq %d dpid %d, want %d", i, ev.Seq, ev.DPID, wantSeq)
		}
	}
	last3 := rec.Events(3)
	if len(last3) != 3 || last3[0].Seq != 17 || last3[2].Seq != 19 {
		t.Errorf("Events(3) = %+v", last3)
	}
	// Asking for more than retained clamps to the window.
	if got := rec.Events(100); len(got) != 8 {
		t.Errorf("Events(100) returned %d", len(got))
	}
}

func TestTraceRingPartialFill(t *testing.T) {
	rec := NewFlightRecorder(16)
	for i := 0; i < 5; i++ {
		rec.Record(TraceEvent{DPID: uint64(i)})
	}
	evs := rec.Events(0)
	if len(evs) != 5 || evs[0].Seq != 0 || evs[4].Seq != 4 {
		t.Errorf("partial ring = %+v", evs)
	}
}

func TestTraceSampling(t *testing.T) {
	rec := NewFlightRecorder(4)
	if rec.Sample() {
		t.Error("TraceOff sampled an event")
	}
	rec.SetMode(TraceFull)
	for i := 0; i < 10; i++ {
		if !rec.Sample() {
			t.Fatal("TraceFull skipped an event")
		}
	}
	rec.SetMode(TraceSampled)
	rec.SetSampleEvery(10)
	n := 0
	for i := 0; i < 1000; i++ {
		if rec.Sample() {
			n++
		}
	}
	if n != 100 {
		t.Errorf("sampled %d of 1000 at 1/10", n)
	}
	if _, ok := ParseTraceMode("sampled"); !ok {
		t.Error("ParseTraceMode rejected sampled")
	}
	if _, ok := ParseTraceMode("bogus"); ok {
		t.Error("ParseTraceMode accepted bogus")
	}
}

// TestTraceRecorderConcurrency hammers Record/Events/Sample under -race.
func TestTraceRecorderConcurrency(t *testing.T) {
	rec := NewFlightRecorder(64)
	rec.SetMode(TraceSampled)
	rec.SetSampleEvery(3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if rec.Sample() {
					rec.Record(TraceEvent{Kind: "k", DPID: uint64(w)})
				}
				if i%50 == 0 {
					rec.Events(16)
				}
			}
		}(w)
	}
	wg.Wait()
	evs := rec.Events(0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
