//go:build !race

package flowtable

import "testing"

// TestLookupBatchZeroAlloc pins the batched lookup path's steady-state
// allocation count at zero. Excluded from race builds: the race runtime
// instruments allocations and the count is no longer meaningful there.
func TestLookupBatchZeroAlloc(t *testing.T) {
	const gen = 3
	c := NewMicroCache(0)
	keys, hashes := cacheBenchKeys(c, 16, gen)
	entries := make([]*Entry, len(keys))
	cached := make([]bool, len(keys))
	allocs := testing.AllocsPerRun(200, func() {
		c.LookupBatch(gen, keys, hashes, entries, cached)
	})
	if allocs != 0 {
		t.Fatalf("LookupBatch allocates %.1f/op, want 0", allocs)
	}
	for i, ok := range cached {
		if !ok || entries[i] == nil {
			t.Fatalf("key %d not served from cache", i)
		}
	}
}

// TestTableLookupBatchZeroAlloc pins the other half of the miss path:
// what the microflow cache could not answer, the index answers without
// allocating either.
func TestTableLookupBatchZeroAlloc(t *testing.T) {
	tbl, frames := benchTable(t, 64)
	reqs := make([]BatchLookup, 16)
	for i := range reqs {
		reqs[i] = BatchLookup{Frame: frames[i*3], Packets: 2, Bytes: 128}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tbl.LookupBatch(reqs, 1, t0)
	})
	if allocs != 0 {
		t.Fatalf("Table.LookupBatch allocates %.1f/op, want 0", allocs)
	}
	for i, r := range reqs {
		if r.Entry == nil {
			t.Fatalf("request %d missed", i)
		}
	}
}
