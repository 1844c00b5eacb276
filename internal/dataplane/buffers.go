package dataplane

import (
	"sync"
	"sync/atomic"

	"repro/internal/zof"
)

// packetBuffers holds packets parked at the switch awaiting a
// controller verdict, OpenFlow buffer_id style. A fixed ring: old
// buffers are overwritten, which is exactly the lossy contract real
// switches provide, and a parked packet lost that way is counted in
// evicted. Internally locked — packets are parked by
// concurrent pipeline executions and released by the serialized
// control path.
type packetBuffers struct {
	mu      sync.Mutex
	slots   []bufferedPacket
	nextID  uint32
	evicted atomic.Uint64 // packets overwritten before their verdict came
}

type bufferedPacket struct {
	id     uint32
	inPort uint32
	data   []byte
	valid  bool
}

// bufferSlots is the ring's size.
const bufferSlots = 256

func newPacketBuffers() *packetBuffers {
	return &packetBuffers{slots: make([]bufferedPacket, bufferSlots)}
}

// put parks a copy of the packet and returns its buffer id (never
// NoBuffer).
func (b *packetBuffers) put(inPort uint32, data []byte) uint32 {
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	if b.nextID == zof.NoBuffer {
		b.nextID = 0
	}
	slot := &b.slots[id%uint32(len(b.slots))]
	if slot.valid {
		b.evicted.Add(1)
	}
	slot.id = id
	slot.inPort = inPort
	slot.data = append(slot.data[:0], data...)
	slot.valid = true
	b.mu.Unlock()
	return id
}

// take removes and returns the packet parked under id. Ownership of the
// data transfers to the caller: the slot drops its reference so a
// racing put reusing the ring position cannot scribble over bytes the
// caller is still forwarding.
func (b *packetBuffers) take(id uint32) (inPort uint32, data []byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	slot := &b.slots[id%uint32(len(b.slots))]
	if !slot.valid || slot.id != id {
		return 0, nil, false
	}
	slot.valid = false
	data = slot.data
	slot.data = nil
	return slot.inPort, data, true
}
