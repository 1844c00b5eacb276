package dataplane

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDelaySchedule pins the reconnect backoff contract:
// exponential growth from MinBackoff, capped at MaxBackoff, spread by
// at most ±backoffJitter around the nominal delay.
func TestBackoffDelaySchedule(t *testing.T) {
	s := &Session{cfg: SessionConfig{
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond,
	}}
	rng := rand.New(rand.NewSource(1))
	nominal := []time.Duration{
		10 * time.Millisecond, // n=1
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for i, want := range nominal {
		n := i + 1
		for trial := 0; trial < 50; trial++ {
			got := s.backoffDelay(n, rng)
			lo := time.Duration(float64(want) * 0.8)
			hi := time.Duration(float64(want) * 1.2)
			if got < lo || got > hi {
				t.Fatalf("backoffDelay(%d) = %v outside [%v, %v]", n, got, lo, hi)
			}
		}
	}
}
