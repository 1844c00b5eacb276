// Package netem emulates the physical network the zen platform runs
// on: links with configurable delay, loss and queue depth joining
// software switches and emulated hosts. It substitutes for testbed
// hardware while exercising the identical dataplane and control-plane
// code paths.
package netem

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
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

	// BurstSize bounds the batches the link delivers in: up to this many
	// of the pipe's due frames go out in one [][]byte delivery, the wire
	// analogue of NIC RX coalescing. Zero means 1.
	BurstSize int
}

// Pipe is one direction of a link: a bounded FIFO on a scheduler,
// delivered into the far end. Frames overflowing the queue are tail
// dropped, which is what bounds broadcast storms in looped topologies.
//
// Queued frames live in buffers the scheduler reuses after delivery, so
// the deliver callback must not retain the batch slice or any frame in
// it past the call (the switch pipeline and host delivery both copy
// what they keep).
type Pipe struct {
	s       *sched
	deliver func([][]byte)
	cfg     PipeConfig
	seq     uint64 // orders pipes falling due at the same instant
	solo    bool   // the pipe owns s: Close stops it
	down    atomic.Bool

	// Guarded by s.mu. A pipe with n > 0 that is not in delivery is on
	// the ready list or the heap.
	rng    *rand.Rand
	ring   []queued // n frames from ring[head], wrapping
	head   int
	n      int
	closed bool          // Send refuses; nothing more is delivered
	next   *Pipe         // ready-list link
	key    time.Duration // heap key: the head frame's due time
	tat    time.Duration // when the token bucket is full again

	Sent    atomic.Uint64 // frames accepted into the queue
	Bytes   atomic.Uint64
	Dropped atomic.Uint64 // tail + loss + down drops
}

// queued is a frame and its due time on the scheduler's clock (0: now).
type queued struct {
	buf []byte
	due time.Duration
}

// NewPipe is NewBatchPipe at burst 1 for a frame-at-a-time receiver.
func NewPipe(cfg PipeConfig, deliver func([]byte)) *Pipe {
	cfg.BurstSize = 1
	return NewBatchPipe(cfg, func(batch [][]byte) { deliver(batch[0]) })
}

// NewBatchPipe makes a pipe on a scheduler of its own, which Close
// stops. Frames are delivered in order, in batches of up to
// cfg.BurstSize (0 means 1). Loss and tail drop apply per frame at
// Send; delay and rate set the time each frame falls due.
//
// deliverBatch runs on the scheduler's goroutine and must not block: on
// a Network every pipe shares it. The callee must not retain the batch
// slice or any frame in it past the call.
func NewBatchPipe(cfg PipeConfig, deliverBatch func([][]byte)) *Pipe {
	p := newSched().pipe(cfg, deliverBatch)
	p.solo = true
	return p
}

// Send enqueues a copy of data and reports whether the pipe took it. An
// idle pipe joins its scheduler's queue and signals the loop, which
// wakes only if it sleeps; no channel is touched.
func (p *Pipe) Send(data []byte) bool {
	if p.down.Load() {
		p.Dropped.Add(1)
		return false
	}
	s := p.s
	s.mu.Lock()
	if p.closed || s.stopped || p.cfg.LossProb > 0 && p.rng.Float64() < p.cfg.LossProb || p.n == len(p.ring) {
		s.mu.Unlock()
		p.Dropped.Add(1)
		return false
	}
	var buf []byte
	if k := len(s.free); k > 0 {
		buf, s.free = s.free[k-1], s.free[:k-1]
	}
	q, now := queued{buf: append(buf[:0], data...)}, time.Duration(0)
	if p.cfg.Delay > 0 || p.cfg.RateMbps > 0 {
		now = time.Since(s.epoch)
		q.due = p.dueAt(now, len(data))
	}
	p.ring[(p.head+p.n)%len(p.ring)] = q
	if p.n++; p.n == 1 && s.busy != p {
		s.queue(p, now)
		s.wake.Broadcast()
	}
	s.mu.Unlock()
	p.Sent.Add(1)
	p.Bytes.Add(uint64(len(data)))
	return true
}

// dueAt is when a frame of size bytes sent at now may be delivered:
// max(now+Delay, when the token bucket holds size tokens).
func (p *Pipe) dueAt(now time.Duration, size int) time.Duration {
	due := now + p.cfg.Delay
	if p.cfg.RateMbps > 0 {
		perByte := 8e3 / p.cfg.RateMbps // ns
		start := max(now, p.tat-time.Duration(float64(bucketBytes-size)*perByte))
		p.tat = max(p.tat, start) + time.Duration(float64(size)*perByte)
		due = max(due, start)
	}
	return due
}

// SetDown marks the direction dead: Send refuses frames and those
// already queued are dropped at delivery.
func (p *Pipe) SetDown(down bool) { p.down.Store(down) }

// Close discards the frames still queued; once it returns, no frame of
// the pipe is delivered. It waits for a batch of the pipe in delivery
// on another goroutine, and may be called from inside a delivery.
func (p *Pipe) Close() {
	s := p.s
	s.mu.Lock()
	for p.closed = true; p.n > 0; p.n-- {
		s.free = append(s.free, p.ring[p.head].buf)
		p.ring[p.head] = queued{}
		p.head = (p.head + 1) % len(p.ring)
	}
	for s.busy == p && s.loop != goid() {
		s.wake.Wait()
	}
	s.mu.Unlock()
	if p.solo {
		s.stop()
	}
}

// Drain blocks until the pipe has no frame queued and none in delivery:
// a test aid for letting in-flight frames settle; not for a delivery.
func (p *Pipe) Drain() {
	s := p.s
	s.mu.Lock()
	for p.n > 0 && !s.stopped || s.busy == p {
		s.wake.Wait()
	}
	s.mu.Unlock()
}

// sched is the event loop under a Network's pipes, or a standalone
// pipe's: one goroutine takes the pipe at the head of a FIFO of pipes
// with a due frame, delivers up to BurstSize of its due frames with no
// lock held and, while the pipe has more, puts it back at the tail —
// each pipe's frames keep their order and pipes take turns. Pipes whose
// next frame is not due wait in a heap keyed by (due, seq), and the
// loop sleeps on one timer until the earliest.
type sched struct {
	mu         sync.Mutex
	wake       sync.Cond // the idle loop, Close and Drain wait on it
	head, tail *Pipe     // the ready list
	later      dueHeap
	free       [][]byte    // frame buffers to reuse, so a busy link allocates nothing
	timer      *time.Timer // wakes the loop when the heap's earliest frame falls due
	stopped    bool
	busy       *Pipe  // the pipe whose batch is in delivery
	loop       uint64 // the loop's goroutine id
	pipes      atomic.Uint64
	epoch      time.Time
	done       chan struct{}
}

func newSched() *sched {
	s := &sched{done: make(chan struct{}), epoch: time.Now()}
	s.wake.L = &s.mu
	s.timer = time.AfterFunc(time.Hour, func() {
		s.mu.Lock()
		s.wake.Broadcast()
		s.mu.Unlock()
	})
	s.timer.Stop()
	go s.run()
	return s
}

// pipe adds a pipe to s.
func (s *sched) pipe(cfg PipeConfig, deliver func([][]byte)) *Pipe {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	cfg.BurstSize = max(cfg.BurstSize, 1)
	return &Pipe{s: s, deliver: deliver, cfg: cfg, seq: s.pipes.Add(1),
		rng: rand.New(rand.NewSource(cfg.Seed)), ring: make([]queued, cfg.QueueLen)}
}

// queue lists p, which has a frame queued: at the tail of the ready
// list if that frame is due at now, else on the heap.
func (s *sched) queue(p *Pipe, now time.Duration) {
	if p.key = p.ring[p.head].due; p.key > now {
		heap.Push(&s.later, p)
	} else if s.tail == nil {
		s.head, s.tail = p, p
	} else {
		s.tail.next, s.tail = p, p
	}
}

func (s *sched) run() {
	defer close(s.done)
	var batch [][]byte
	var now time.Duration
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loop = goid()
	for !s.stopped {
		if len(s.later) > 0 {
			now = time.Since(s.epoch)
			for len(s.later) > 0 && s.later[0].key <= now {
				if p := heap.Pop(&s.later).(*Pipe); p.n > 0 { // else closed while it waited
					s.queue(p, now)
				}
			}
		}
		p := s.head
		if p == nil {
			if len(s.later) > 0 {
				s.timer.Reset(s.later[0].key - now)
			}
			s.wake.Wait()
			continue
		}
		if s.head, p.next = p.next, nil; s.head == nil {
			s.tail = nil
		}
		for p.n > 0 && len(batch) < p.cfg.BurstSize && p.ring[p.head].due <= now {
			q := p.ring[p.head]
			p.ring[p.head] = queued{}
			p.head, p.n = (p.head+1)%len(p.ring), p.n-1
			batch = append(batch, q.buf)
		}
		s.busy = p
		s.mu.Unlock()
		if p.down.Load() {
			p.Dropped.Add(uint64(len(batch)))
		} else if len(batch) > 0 { // empty if p was closed, or listed by a Send that read a later clock
			p.deliver(batch)
		}
		s.mu.Lock()
		s.free, batch = append(s.free, batch...), batch[:0]
		if s.busy = nil; p.n > 0 {
			s.queue(p, now)
		}
		s.wake.Broadcast()
	}
}

// stop ends the loop: nothing is delivered once it returns, and Send
// refuses frames. Called from a delivery, it does not wait for the loop.
func (s *sched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.wake.Broadcast()
	onLoop := s.loop == goid()
	s.mu.Unlock()
	s.timer.Stop()
	if !onLoop {
		<-s.done
	}
}

// dueHeap orders the pipes waiting for their head frame by (key, seq).
type dueHeap []*Pipe

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(i, j int) bool {
	return h[i].key < h[j].key || h[i].key == h[j].key && h[i].seq < h[j].seq
}
func (h dueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(*Pipe)) }
func (h *dueHeap) Pop() any {
	p := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return p
}

// goid is the calling goroutine's id, read from runtime.Stack's header.
// Close and stop use it to tell a delivery from a caller that must wait.
func goid() (id uint64) {
	var buf [64]byte
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d", &id)
	return id
}
