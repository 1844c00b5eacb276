// Package netem emulates the physical network the zen platform runs
// on: links with configurable delay, loss and queue depth joining
// software switches and emulated hosts. It substitutes for testbed
// hardware while exercising the identical dataplane and control-plane
// code paths.
package netem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// bucketBytes is the token bucket's depth: one MTU.
const bucketBytes = 1500

// PipeConfig shapes one direction of a link.
type PipeConfig struct {
	Delay    time.Duration // propagation delay per frame
	LossProb float64       // iid drop probability in [0,1)
	QueueLen int           // frames buffered before tail drop; default 256
	Seed     int64         // loss RNG seed (deterministic tests)

	// RateMbps, when positive, serializes frames through a token
	// bucket at this line rate; bucketBytes tokens may be sent
	// back-to-back.
	RateMbps float64

	// BurstSize bounds the batches the link delivers in: the pump
	// coalesces up to this many already-queued frames into one [][]byte
	// delivery, the wire analogue of NIC RX coalescing. Zero means 1:
	// every batch is a single frame.
	BurstSize int
}

// framePool recycles the queue's frame copies so a busy link allocates
// nothing per frame at steady state.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Pipe is one direction of a link: a bounded queue, a pump goroutine,
// and delivery into the far end. Frames overflowing the queue are tail
// dropped, which is what bounds broadcast storms in looped topologies.
//
// Queued frames live in pooled buffers returned to the pool after
// delivery, so the deliver callback must not retain the batch slice or
// any frame in it past the call (the switch pipeline and host delivery
// both copy what they keep).
type Pipe struct {
	ch      chan *[]byte
	quit    chan struct{}
	deliver func([][]byte)
	cfg     PipeConfig
	rng     *rand.Rand
	rngMu   sync.Mutex
	down    atomic.Bool
	closed  atomic.Bool
	wg      sync.WaitGroup

	Sent    atomic.Uint64 // frames accepted into the queue
	Bytes   atomic.Uint64
	Dropped atomic.Uint64 // tail + loss + down drops
}

// NewPipe is NewBatchPipe at burst 1 for a frame-at-a-time receiver.
func NewPipe(cfg PipeConfig, deliver func([]byte)) *Pipe {
	cfg.BurstSize = 1
	return NewBatchPipe(cfg, func(batch [][]byte) { deliver(batch[0]) })
}

// NewBatchPipe starts the pump: it coalesces queued frames into batches
// of up to cfg.BurstSize (0 means 1) and delivers each batch with one
// deliverBatch call. Loss and tail drop apply per frame at Send; delay
// and rate shaping apply once per batch, over its total bytes —
// back-to-back frames on a wire share the serialization wait anyway.
//
// Batch slices and every frame in them are pooled and reclaimed when
// deliverBatch returns: the callee must not retain the outer slice or
// any frame past the call.
func NewBatchPipe(cfg PipeConfig, deliverBatch func([][]byte)) *Pipe {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = 1
	}
	p := &Pipe{
		ch:      make(chan *[]byte, cfg.QueueLen),
		quit:    make(chan struct{}),
		deliver: deliverBatch,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	p.wg.Add(1)
	go p.pump()
	return p
}

// pump is the link's one goroutine: block for one frame, sweep up
// whatever else is already queued (up to BurstSize), shape and deliver
// the lot as one batch. Under load the queue stays occupied and bursts
// fill out; at low rate, or at BurstSize 1, every batch is a single
// frame — batching cost appears exactly when there is work to amortize
// it over. The token bucket is consumed only by this goroutine.
func (p *Pipe) pump() {
	defer p.wg.Done()
	bps := make([]*[]byte, 0, p.cfg.BurstSize)
	batch := make([][]byte, 0, p.cfg.BurstSize)
	tokens := float64(bucketBytes)
	bytesPerSec := p.cfg.RateMbps * 1e6 / 8
	last := time.Now()
	for {
		select {
		case <-p.quit:
			return
		case bp := <-p.ch:
			bps = append(bps[:0], bp)
		coalesce:
			for len(bps) < p.cfg.BurstSize {
				select {
				case more := <-p.ch:
					bps = append(bps, more)
				default:
					break coalesce
				}
			}
			batch = batch[:0]
			total := 0
			for _, b := range bps {
				batch = append(batch, *b)
				total += len(*b)
			}
			if bytesPerSec > 0 {
				now := time.Now()
				tokens += now.Sub(last).Seconds() * bytesPerSec
				last = now
				if tokens > bucketBytes {
					tokens = bucketBytes
				}
				if need := float64(total) - tokens; need > 0 {
					wait := time.Duration(need / bytesPerSec * float64(time.Second))
					select {
					case <-p.quit:
						return
					case <-time.After(wait):
					}
					now = time.Now()
					tokens += now.Sub(last).Seconds() * bytesPerSec
					last = now
				}
				tokens -= float64(total)
			}
			if p.cfg.Delay > 0 {
				select {
				case <-p.quit:
					return
				case <-time.After(p.cfg.Delay):
				}
			}
			if p.down.Load() {
				p.Dropped.Add(uint64(len(bps)))
			} else {
				p.deliver(batch)
			}
			for i, b := range bps {
				framePool.Put(b)
				bps[i] = nil
				batch[i] = nil
			}
		}
	}
}

// Send enqueues a frame (copying it). Returns false if dropped.
func (p *Pipe) Send(data []byte) bool {
	if p.down.Load() || p.closed.Load() {
		p.Dropped.Add(1)
		return false
	}
	if p.cfg.LossProb > 0 {
		p.rngMu.Lock()
		lost := p.rng.Float64() < p.cfg.LossProb
		p.rngMu.Unlock()
		if lost {
			p.Dropped.Add(1)
			return false
		}
	}
	bp := framePool.Get().(*[]byte)
	*bp = append((*bp)[:0], data...)
	select {
	case p.ch <- bp:
		p.Sent.Add(1)
		p.Bytes.Add(uint64(len(data)))
		return true
	default:
		p.Dropped.Add(1)
		framePool.Put(bp)
		return false
	}
}

// SetDown marks the direction dead (frames blackholed).
func (p *Pipe) SetDown(down bool) { p.down.Store(down) }

// Close stops the pump; frames still queued are discarded. The channel
// itself is never closed so a racing Send can not panic.
func (p *Pipe) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
	p.wg.Wait()
}

// Drain blocks until the queue momentarily empties — a test aid for
// letting in-flight frames settle on zero-delay pipes.
func (p *Pipe) Drain() {
	for len(p.ch) > 0 {
		time.Sleep(time.Millisecond)
	}
}
