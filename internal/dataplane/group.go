package dataplane

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/zof"
)

// GroupType selects the group execution semantics.
type GroupType uint8

// Group types mirror OpenFlow: All replicates to every bucket, Select
// hashes each flow onto one bucket (weighted), FastFailover takes the
// first bucket whose watch port is up.
const (
	GroupAll GroupType = iota
	GroupSelect
	GroupFastFailover
)

// Bucket is one action set within a group.
type Bucket struct {
	Actions   []zof.Action
	Weight    uint16 // Select: share of flows (0 treated as 1)
	WatchPort uint32 // FastFailover: liveness signal (0 = always live)
}

// GroupDesc is an installed group.
type GroupDesc struct {
	ID      uint32
	Type    GroupType
	Buckets []Bucket
}

// pick returns the buckets to execute for a frame with the given
// symmetric flow hash. portUp reports port liveness for fast failover.
func (g *GroupDesc) pick(hash uint64, portUp func(uint32) bool) ([]Bucket, error) {
	switch g.Type {
	case GroupAll:
		return g.Buckets, nil
	case GroupSelect:
		if len(g.Buckets) == 0 {
			return nil, nil
		}
		var total uint64
		for _, b := range g.Buckets {
			w := uint64(b.Weight)
			if w == 0 {
				w = 1
			}
			total += w
		}
		x := hash % total
		for i := range g.Buckets {
			w := uint64(g.Buckets[i].Weight)
			if w == 0 {
				w = 1
			}
			if x < w {
				return g.Buckets[i : i+1], nil
			}
			x -= w
		}
		return g.Buckets[len(g.Buckets)-1:], nil
	case GroupFastFailover:
		for i := range g.Buckets {
			wp := g.Buckets[i].WatchPort
			if wp == 0 || portUp(wp) {
				return g.Buckets[i : i+1], nil
			}
		}
		return nil, nil // all watched ports down: drop
	}
	return nil, fmt.Errorf("dataplane: unknown group type %d", g.Type)
}

// selectHash derives the flow hash Select groups shard on.
func selectHash(f *packet.Frame) uint64 {
	var k packet.FlowKey
	k.Extract(f)
	return k.SymmetricHash()
}
