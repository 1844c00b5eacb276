package netem

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topo"
)

// TestDrainWaitsForDelivery: Drain returns only once the last batch has
// been delivered, not when the loop has merely dequeued it.
func TestDrainWaitsForDelivery(t *testing.T) {
	var got atomic.Uint64
	p := NewPipe(PipeConfig{}, func([]byte) {
		time.Sleep(20 * time.Millisecond)
		got.Add(1)
	})
	defer p.Close()
	if !p.Send([]byte("x")) {
		t.Fatal("send failed")
	}
	p.Drain()
	if got.Load() != 1 {
		t.Fatalf("Drain returned with %d of 1 frames delivered", got.Load())
	}
}

// TestPipeCloseWaitsForDelivery: Close called while a batch of the pipe
// is in delivery returns only once that delivery has, on a scheduler it
// shares (so Close does not stop it).
func TestPipeCloseWaitsForDelivery(t *testing.T) {
	in, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Bool
	s := newSched()
	defer s.stop()
	p := s.pipe(PipeConfig{}, func([][]byte) {
		close(in)
		<-release
		delivered.Store(true)
	})
	p.Send([]byte("x"))
	<-in
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("Close returned while a batch was in delivery")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !delivered.Load() {
		t.Fatal("Close returned before the delivery did")
	}
}

// TestPipeCloseFromDelivery: a delivery may close its own pipe, and the
// frames queued behind it are not delivered.
func TestPipeCloseFromDelivery(t *testing.T) {
	var p *Pipe
	var got atomic.Uint64
	gate := make(chan struct{})
	closed := make(chan struct{})
	p = NewPipe(PipeConfig{}, func([]byte) {
		<-gate
		got.Add(1)
		p.Close()
		close(closed)
	})
	for i := 0; i < 3; i++ {
		p.Send([]byte("x"))
	}
	close(gate)
	<-closed
	p.Close() // waits for the loop, which has already stopped
	if got.Load() != 1 || p.Send([]byte("x")) {
		t.Fatalf("delivered %d after a Close from the first delivery", got.Load())
	}
}

// TestNetworkRunsOneLoop: a whole fat-tree with hosts runs on one
// scheduler goroutine, not one pump per pipe.
func TestNetworkRunsOneLoop(t *testing.T) {
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	n := Build(g, Config{})
	defer n.Stop()
	for i, node := range []topo.NodeID{edges[0], edges[len(edges)-1]} {
		if _, err := n.AttachHost(string(rune('a'+i)), node, packet.IPv4Addr{10, 0, byte(i), 1}, PipeConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if started := runtime.NumGoroutine() - before; started > 2 {
		t.Fatalf("a fat-tree with two hosts started %d goroutines, want <= 2", started)
	}
}

// Frames in the oracle schedules carry who sent them and when:
// [0] producer, [1] pipe, [2:6] producer's sequence, [6:14] send stamp.
const (
	oracleHdr  = 14
	loopSender = 2 // producer id of frames re-sent from inside a delivery
)

type oraclePipe struct {
	p      *Pipe
	cfg    PipeConfig
	target int // pipe a delivery re-sends producer frames into; -1 none

	offered, accepted, refused atomic.Uint64
	everDown, closed           atomic.Bool // closed: a Close has returned

	// Written by deliveries only, which the one loop serializes.
	delivered, bytes uint64
	last             [3]int64
}

type oracleCov struct {
	delivered, batched, shaped, reentrant, tailDrops, downDrops, closedInside, closedOutside int
}

// TestSchedulerMatchesPipeOracle runs seeded schedules of 2–8 pipes on
// one scheduler — BurstSize 1–32, QueueLen 4–256, some pipes delayed or
// rate-limited, some deliveries re-sending into another pipe or their
// own — fed by two producers while one flips links down and a pipe is
// closed mid-run, from outside or from its own delivery. It holds the
// scheduler to what a pipe promises:
//   - each producer's frames arrive in order on each pipe, each once;
//   - offered = Sent + refused, and Dropped = refused + down-drops at
//     delivery, so Sent = delivered + down-drops (+ what Close discarded);
//   - no batch is empty or larger than BurstSize;
//   - nothing is delivered after Close or stop returns;
//   - no frame arrives before its Delay is up, and no pipe delivers
//     more than bucketBytes + rate × elapsed.
func TestSchedulerMatchesPipeOracle(t *testing.T) {
	var cov oracleCov
	for seed := int64(0); seed < 48; seed++ {
		checkSchedulerSchedule(t, seed, &cov)
	}
	t.Logf("%+v", cov)
	if cov.batched < 100 || cov.shaped < 1000 || cov.reentrant < 1000 || cov.tailDrops < 100 ||
		cov.downDrops == 0 || cov.closedInside < 5 || cov.closedOutside < 5 {
		t.Fatalf("schedules too sparse to test the scheduler: %+v", cov)
	}
}

func checkSchedulerSchedule(t *testing.T, seed int64, cov *oracleCov) {
	rng := rand.New(rand.NewSource(seed))
	s := newSched()
	base := time.Now()
	ops := make([]*oraclePipe, 2+rng.Intn(7))
	shaped := seed%3 == 0
	var loopSeq atomic.Uint32
	var stopped atomic.Bool

	var send func(op *oraclePipe, i, producer int, seq uint32, size int)
	send = func(op *oraclePipe, i, producer int, seq uint32, size int) {
		f := make([]byte, size)
		f[0], f[1] = byte(producer), byte(i)
		binary.LittleEndian.PutUint32(f[2:], seq)
		binary.LittleEndian.PutUint64(f[6:], uint64(time.Since(base)))
		op.offered.Add(1)
		if op.p.Send(f) {
			op.accepted.Add(1)
		} else {
			op.refused.Add(1)
		}
	}
	closeInside := -1
	if seed%4 == 1 {
		closeInside = rng.Intn(len(ops))
	}
	for i := range ops {
		op := &oraclePipe{target: -1, last: [3]int64{-1, -1, -1}}
		op.cfg = PipeConfig{BurstSize: 1 + rng.Intn(32), QueueLen: 4 + rng.Intn(253), Seed: seed}
		if shaped && rng.Intn(2) == 0 {
			op.cfg.Delay = time.Duration(rng.Intn(500)) * time.Microsecond
		}
		if shaped && rng.Intn(2) == 0 {
			op.cfg.RateMbps = float64(20 + rng.Intn(180))
		}
		if rng.Intn(3) == 0 {
			op.target = rng.Intn(len(ops)) // possibly itself
		}
		i := i
		op.p = s.pipe(op.cfg, func(batch [][]byte) {
			if op.closed.Load() || stopped.Load() {
				t.Errorf("seed %d: pipe %d delivered after Close or stop returned", seed, i)
			}
			if len(batch) == 0 || len(batch) > op.cfg.BurstSize {
				t.Errorf("seed %d: pipe %d delivered a batch of %d at BurstSize %d", seed, i, len(batch), op.cfg.BurstSize)
			}
			if len(batch) > 1 {
				cov.batched++
			}
			now := time.Since(base)
			for _, f := range batch {
				producer, seq := int(f[0]), int64(binary.LittleEndian.Uint32(f[2:]))
				stamp := time.Duration(binary.LittleEndian.Uint64(f[6:]))
				if int(f[1]) != i || seq <= op.last[producer] {
					t.Errorf("seed %d: pipe %d got producer %d's frame %d (for pipe %d) after %d", seed, i, producer, seq, f[1], op.last[producer])
				}
				op.last[producer] = seq
				if now < stamp+op.cfg.Delay {
					t.Errorf("seed %d: pipe %d delivered a frame %v after Send, Delay %v", seed, i, now-stamp, op.cfg.Delay)
				}
				op.delivered++
				op.bytes += uint64(len(f))
				if r := op.cfg.RateMbps; r > 0 && float64(op.bytes) > bucketBytes+64+r*1e6/8*now.Seconds() {
					t.Errorf("seed %d: pipe %d delivered %d bytes in %v at %v Mbit/s", seed, i, op.bytes, now, r)
				}
				if op.cfg.Delay > 0 || op.cfg.RateMbps > 0 {
					cov.shaped++
				}
				if producer != loopSender && op.target >= 0 {
					cov.reentrant++
					send(ops[op.target], op.target, loopSender, loopSeq.Add(1), len(f))
				}
			}
			if i == closeInside && op.delivered >= 20 && !op.closed.Load() {
				op.p.Close()
				op.closed.Store(true)
				cov.closedInside++
			} else if op.closed.Load() {
				t.Errorf("seed %d: pipe %d was closed while its batch was in delivery", seed, i)
			}
		})
		ops[i] = op
	}

	closeOutside := -1
	if seed%4 == 3 {
		closeOutside = rng.Intn(len(ops))
	}
	const perProducer = 400
	var wg sync.WaitGroup
	for producer := 0; producer < 2; producer++ {
		prng := rand.New(rand.NewSource(seed*7 + int64(producer)))
		wg.Add(1)
		go func(producer int) {
			defer wg.Done()
			for seq := 0; seq < perProducer; seq++ {
				i := prng.Intn(len(ops))
				size := oracleHdr + prng.Intn(50)
				if shaped {
					size = oracleHdr + prng.Intn(bucketBytes-oracleHdr)
				}
				send(ops[i], i, producer, uint32(seq), size)
				switch {
				case producer == 0 && seq == perProducer/2 && closeOutside >= 0:
					ops[closeOutside].p.Close()
					ops[closeOutside].closed.Store(true)
				case producer == 1 && prng.Intn(40) == 0:
					op := ops[prng.Intn(len(ops))]
					op.everDown.Store(true)
					op.p.SetDown(true)
					runtime.Gosched()
					op.p.SetDown(false)
				case seq%16 == 0:
					runtime.Gosched() // let the loop take turns with the producers
				}
			}
		}(producer)
	}
	wg.Wait()
	// Two passes: a delivery drained in the first may re-send into a
	// pipe the first pass had already drained.
	for pass := 0; pass < 2; pass++ {
		for _, op := range ops {
			op.p.Drain()
		}
	}
	s.stop() // as Network.Stop does: no Close
	stopped.Store(true)
	if ops[0].p.Send(make([]byte, oracleHdr)) {
		t.Errorf("seed %d: a pipe took a frame after stop", seed)
	}
	ops[0].refused.Add(1)
	ops[0].offered.Add(1)
	if closeOutside >= 0 {
		cov.closedOutside++
	}

	for i, op := range ops {
		sent, dropped := op.p.Sent.Load(), op.p.Dropped.Load()
		offered, accepted, refused := op.offered.Load(), op.accepted.Load(), op.refused.Load()
		if offered != accepted+refused || sent != accepted || dropped < refused {
			t.Errorf("seed %d: pipe %d offered %d, Send took %d and refused %d; Sent %d Dropped %d",
				seed, i, offered, accepted, refused, sent, dropped)
			continue
		}
		downDrops := dropped - refused
		switch {
		case downDrops > 0 && !op.everDown.Load():
			t.Errorf("seed %d: pipe %d dropped %d at delivery but was never down", seed, i, downDrops)
		case i == closeInside || i == closeOutside:
			if op.delivered+downDrops > sent {
				t.Errorf("seed %d: closed pipe %d delivered %d + dropped %d of %d sent", seed, i, op.delivered, downDrops, sent)
			}
		case op.delivered+downDrops != sent:
			t.Errorf("seed %d: pipe %d delivered %d + dropped %d at delivery, Sent %d", seed, i, op.delivered, downDrops, sent)
		}
		cov.delivered += int(op.delivered)
		cov.downDrops += int(downDrops)
		if !op.everDown.Load() && i != closeInside && i != closeOutside {
			cov.tailDrops += int(refused)
		}
	}
}
