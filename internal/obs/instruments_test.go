package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Errorf("mean = %v", mean)
	}
	if h.Min() != time.Microsecond || h.Max() != time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Quantiles are bucket upper bounds: p50 of 1..1000us is ~500us,
	// whose bucket [2^18..2^19)ns has upper bound 2^19ns ~= 524us.
	p50 := h.Quantile(0.5)
	if p50 < 250*time.Microsecond || p50 > time.Millisecond+49*time.Microsecond {
		t.Errorf("p50 = %v", p50)
	}
	if h.Quantile(1) < h.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	durs := []time.Duration{time.Nanosecond, 10 * time.Nanosecond, time.Microsecond,
		50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond, time.Second}
	for _, d := range durs {
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
	}
	last := time.Duration(0)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		q := h.Quantile(p)
		if q < last {
			t.Fatalf("quantile(%v) = %v < previous %v", p, q, last)
		}
		last = q
	}
}

// A quantile is an estimate of an observed value, so it must lie within
// the observed range — the bucket's upper bound alone overshoots Max
// whenever the top bucket is sparsely filled (one 1100ns sample used to
// report p50 = p99 = 2048ns beside max = 1100ns).
func TestHistogramQuantileWithinObservedRange(t *testing.T) {
	for _, samples := range [][]time.Duration{
		{1100},
		{0},
		{3, 1100},
		{700, 900, 1100},
		{time.Microsecond, 50 * time.Microsecond, 33 * time.Millisecond},
	} {
		h := NewHistogram()
		for _, d := range samples {
			h.Observe(d)
		}
		for _, p := range []float64{0, 0.5, 0.99, 1} {
			if q := h.Quantile(p); q < h.Min() || q > h.Max() {
				t.Errorf("%v: quantile(%v) = %v outside [%v, %v]", samples, p, q, h.Min(), h.Max())
			}
		}
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamped, must not panic
	h.Observe(0)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(k*j+1) * time.Nanosecond)
			}
		}(i + 1)
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Errorf("count = %d", h.Count())
	}
}
