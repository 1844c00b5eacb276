package dataplane_test

import (
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
)

// sessRec counts lifecycle events on the controller side.
type sessRec struct {
	mu         sync.Mutex
	ups, downs int
	reconnects int
}

func (r *sessRec) Name() string { return "sess-rec" }
func (r *sessRec) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	r.mu.Lock()
	r.ups++
	if ev.Reconnect {
		r.reconnects++
	}
	r.mu.Unlock()
}
func (r *sessRec) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	r.mu.Lock()
	r.downs++
	r.mu.Unlock()
}
func (r *sessRec) counts() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ups, r.downs, r.reconnects
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionReconnects drops the control connection repeatedly and
// requires the session manager to redial each time: session count
// grows, the controller sees Reconnect SwitchUps, and the manager ends
// up connected.
func TestSessionReconnects(t *testing.T) {
	rec := &sessRec{}
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.Use(rec)
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 11})
	sw.AddPort(1, "p", 10)
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){channel.Dial},
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Seed:       1,
	})
	defer sess.Close()
	if err := sess.WaitConnected(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "initial SwitchUp", func() bool {
		u, _, _ := rec.counts()
		return u == 1
	})

	const drops = 3
	for i := 0; i < drops; i++ {
		want := sess.Sessions() + 1
		channel.DropConnections()
		waitFor(t, 5*time.Second, "session re-establishment", func() bool {
			return sess.Sessions() >= want && sess.Connected()
		})
	}
	waitFor(t, 5*time.Second, "reconnect SwitchUps", func() bool {
		_, _, r := rec.counts()
		return r >= drops
	})
	if got := sess.Sessions(); got != drops+1 {
		t.Errorf("sessions = %d, want %d", got, drops+1)
	}
	if !sess.Connected() {
		t.Error("manager not connected after recovery")
	}
	if sess.Datapath() == nil {
		t.Error("no live datapath after recovery")
	}
}

// refused is a dialer whose controller is down.
func refused() (net.Conn, error) { return nil, syscall.ECONNREFUSED }

// TestSessionDialBackoffAndGiveUp points the manager at a dead endpoint
// with a small attempt budget: it must retry with backoff, then stop.
func TestSessionDialBackoffAndGiveUp(t *testing.T) {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 12})
	var mu sync.Mutex
	var states []dataplane.SessionState
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:        []func() (net.Conn, error){refused}, // nothing listens here
		MinBackoff:  time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		MaxAttempts: 3,
		Seed:        1,
		OnState: func(st dataplane.SessionState, attempt int, err error) {
			mu.Lock()
			states = append(states, st)
			mu.Unlock()
		},
	})
	select {
	case <-sess.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("manager did not give up")
	}
	if sess.State() != dataplane.SessionStopped {
		t.Errorf("state = %v, want stopped", sess.State())
	}
	if got := sess.Attempts(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	var backoffs int
	for _, st := range states {
		if st == dataplane.SessionBackoff {
			backoffs++
		}
	}
	if backoffs != 2 { // attempts 1 and 2 back off; attempt 3 gives up
		t.Errorf("backoff transitions = %d, want 2", backoffs)
	}
}

// TestSessionCloseWhileBackingOff must return promptly, not ride out
// the backoff timer or a pending dial.
func TestSessionCloseWhileBackingOff(t *testing.T) {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 13})
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:       []func() (net.Conn, error){refused},
		MinBackoff: 10 * time.Second, // would stall Close if not interruptible
		Seed:       1,
	})
	time.Sleep(20 * time.Millisecond) // let the first dial fail
	done := make(chan struct{})
	go func() {
		sess.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on the backoff timer")
	}
}
