package controller

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/zof"
)

func fenceRule(i int) *zof.FlowMod {
	return &zof.FlowMod{Command: zof.FlowAdd, Match: txnMatch(i), Priority: 100,
		BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}}
}

func pendingReplies(sc *SwitchConn) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.pending)
}

// TestSendFencedRepliesBehindTheBatch: the callback runs once, with
// nil, and by then the datapath holds every rule of the batch.
func TestSendFencedRepliesBehindTheBatch(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 1)
	sc, _ := ctl.Switch(1)
	type result struct {
		err   error
		flows int
	}
	got := make(chan result, 2)
	sc.SendFenced(func(err error) { got <- result{err, sws[0].FlowCount()} }, fenceRule(1), fenceRule(2))
	select {
	case r := <-got:
		if r.err != nil || r.flows != 2 {
			t.Fatalf("fence = %v with %d flows installed, want nil with 2", r.err, r.flows)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fence callback never ran")
	}
	if n := pendingReplies(sc); n != 0 {
		t.Errorf("%d reply handlers left pending", n)
	}
	// The same map still serves blocking requests.
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("fence callback ran twice")
	}
}

// TestSendFencedCollectsRejections: the callback gets exactly the
// Errors its own batch drew — here the middle rule's dangling group
// reference — and none of them leaks to the controller's async-error
// path. A clean fence behind it on the same connection gets nil.
func TestSendFencedCollectsRejections(t *testing.T) {
	ctl, _ := txnHarness(t, Config{}, dataplane.Config{DPID: 1})
	sc, _ := ctl.Switch(1)
	bad := fenceRule(2)
	bad.Actions = []zof.Action{zof.Group(404)}
	got := make(chan error, 2)
	// Nothing else writes on this connection, so the batch takes the
	// next XIDs in order: base+1 .. base+3, then the barrier.
	base := sc.conn.NextXID()
	sc.SendFenced(func(err error) { got <- err }, fenceRule(1), bad, fenceRule(3))
	var err error
	select {
	case err = <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("fence callback never ran")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	var ae AsyncError
	if !ok || len(joined.Unwrap()) != 1 || !errors.As(joined.Unwrap()[0], &ae) ||
		ae.XID != base+2 || ae.Code != zof.ErrCodeBadGroup || ae.DPID != 1 {
		t.Fatalf("fence = %v, want exactly xid %d's bad-group rejection", err, base+2)
	}
	if n, _ := ctl.Metrics().Value("controller.async_errors"); n != 0 {
		t.Errorf("rejection leaked: async_errors=%d", n)
	}
	if n := pendingReplies(sc); n != 0 {
		t.Errorf("%d reply handlers left pending", n)
	}

	clean := make(chan error, 1)
	sc.SendFenced(func(err error) { clean <- err }, fenceRule(4))
	select {
	case err := <-clean:
		if err != nil {
			t.Fatalf("clean fence = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("clean fence callback never ran")
	}
	if len(got) != 0 {
		t.Error("fence callback ran twice")
	}
}

// TestSendFencedFailsOnceWhenSessionDies kills the session between the
// batch and its reply: every outstanding fence fails exactly once, no
// rule lands, and nothing is left in the pending-reply map.
func TestSendFencedFailsOnceWhenSessionDies(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 1000)
	sw.AddPort(2, "p2", 1000)
	dp, err := attach(sw, channel)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := ctl.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sc, _ := ctl.Switch(1)

	channel.Blackhole(true) // the batch leaves the controller and never arrives
	const fences = 3
	var ok, failed atomic.Int32
	done := func(err error) {
		if err == nil {
			ok.Add(1)
		} else {
			failed.Add(1)
		}
	}
	for i := 0; i < fences; i++ {
		sc.SendFenced(done, fenceRule(i))
	}
	if n := pendingReplies(sc); n != fences {
		t.Fatalf("%d reply handlers pending, want %d", n, fences)
	}
	channel.DropConnections()
	waitUntil(t, 2*time.Second, func() bool { return failed.Load() == fences })
	<-sc.Done()
	if n := pendingReplies(sc); n != 0 {
		t.Errorf("%d reply handlers leaked past the close", n)
	}
	// A fence on the dead session fails at once, on the caller.
	sc.SendFenced(done, fenceRule(9))
	if ok.Load() != 0 || failed.Load() != fences+1 {
		t.Errorf("callbacks: %d ok %d failed, want 0 and %d", ok.Load(), failed.Load(), fences+1)
	}
	if sw.FlowCount() != 0 || pendingReplies(sc) != 0 {
		t.Errorf("after the kill: %d flows, %d pending", sw.FlowCount(), pendingReplies(sc))
	}
}

// TestSendFencedConcurrentWithClose: fences and blocking requests from
// many goroutines share the reply map while the session closes under
// them; every callback still runs exactly once (-race).
func TestSendFencedConcurrentWithClose(t *testing.T) {
	ctl, _, dps := newTestController(t, nil, 1)
	sc, _ := ctl.Switch(1)
	const workers, each = 8, 200
	var calls atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sc.SendFenced(func(error) { calls.Add(1) }, fenceRule(w*each+i))
				if i%16 == 0 {
					_ = sc.Barrier(time.Second)
				}
				if w == 0 && i == each/2 {
					dps[0].Close()
				}
			}
		}(w)
	}
	wg.Wait()
	<-sc.Done()
	waitUntil(t, 2*time.Second, func() bool { return calls.Load() == workers*each })
	if n := pendingReplies(sc); n != 0 {
		t.Errorf("%d reply handlers leaked", n)
	}
}

// TestFenceRejectsByBlock: an Error whose XID lies in a fence's block
// of op XIDs is filed with that fence and no other; the XIDs just
// outside a block — the one before it, and the fence's own barrier
// after it — are filed with no fence.
func TestFenceRejectsByBlock(t *testing.T) {
	sc := &SwitchConn{dpid: 1, pending: map[uint32]waiter{}}
	var a error
	var b []AsyncError
	sc.expect(103, waiter{done: func(err error) { a = err }, first: 100, n: 3})
	sc.expect(106, waiter{collect: func(rej []AsyncError, _ error) { b = rej }, first: 104, n: 2})
	for _, tc := range []struct {
		xid   uint32
		filed bool
	}{{99, false}, {100, true}, {102, true}, {103, false}, {104, true}, {106, false}} {
		if got := sc.reject(tc.xid, &zof.Error{Code: zof.ErrCodeBadGroup}); got != tc.filed {
			t.Errorf("reject(%d) = %v, want %v", tc.xid, got, tc.filed)
		}
	}
	sc.resolve(103, &zof.BarrierReply{})
	sc.resolve(106, &zof.BarrierReply{})
	var xids []uint32
	if joined, ok := a.(interface{ Unwrap() []error }); ok {
		for _, err := range joined.Unwrap() {
			var ae AsyncError
			if errors.As(err, &ae) {
				xids = append(xids, ae.XID)
			}
		}
	}
	if !slices.Equal(xids, []uint32{100, 102}) {
		t.Errorf("fence [100, 103) = %v, want the rejections of 100 and 102", a)
	}
	if len(b) != 1 || b[0].XID != 104 {
		t.Errorf("fence [104, 106) collected %v, want the rejection of 104", b)
	}
}
