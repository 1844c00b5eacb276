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
		// Drop only a session the controller has posted SwitchUp for, or
		// the count of reconnect SwitchUps below can come up short.
		waitFor(t, 5*time.Second, "controller-side SwitchUp", func() bool {
			u, _, _ := rec.counts()
			return u >= i+1
		})
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

// TestSessionProbeEvictsBlackholedController blackholes the channel
// under a live session: only the switch side's prober can notice, since
// nothing the controller does reaches the switch. It must close the
// session within its miss budget and redial, and once the channel heals
// the switch must be back.
func TestSessionProbeEvictsBlackholedController(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		misses   = 3
	)
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 14})
	sw.AddPort(1, "p", 10)
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial:          []func() (net.Conn, error){channel.Dial},
		MinBackoff:    5 * time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		ProbeInterval: interval,
		ProbeMisses:   misses,
		Seed:          1,
	})
	defer sess.Close()
	if err := sess.WaitConnected(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := sess.LastDetection(); d != 0 {
		t.Fatalf("detection %v before any fault", d)
	}

	channel.Blackhole(true)
	waitFor(t, 2*time.Second, "switch-side eviction and redial", func() bool {
		return sess.LastDetection() > 0 && sess.Attempts() >= 2
	})
	// A switch-side probe times out after one interval, so the streak
	// may run one interval past interval × misses.
	if d, bound := sess.LastDetection(), interval*(misses+1); d > bound {
		t.Errorf("detection %v past %v", d, bound)
	}

	// Heal, and sever the redial the blackhole left half-open.
	channel.Blackhole(false)
	channel.DropConnections()
	waitFor(t, 5*time.Second, "reconnect after heal", func() bool {
		return sess.Sessions() >= 2 && sess.Connected()
	})
	if err := ctl.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

// refused is a dialer whose controller is down.
func refused() (net.Conn, error) { return nil, syscall.ECONNREFUSED }

// TestSessionRedialsUntilClose points the manager at a dead endpoint:
// it must keep redialing, each wait longer than the last up to
// MaxBackoff, and stop only when closed.
func TestSessionRedialsUntilClose(t *testing.T) {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 12})
	var mu sync.Mutex
	var dials []time.Time
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial: []func() (net.Conn, error){func() (net.Conn, error) {
			mu.Lock()
			dials = append(dials, time.Now())
			mu.Unlock()
			return refused()
		}},
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       1,
	})
	waitFor(t, 5*time.Second, "six dials", func() bool { return sess.Attempts() >= 6 })
	select {
	case <-sess.Done():
		t.Fatal("manager stopped before Close")
	default:
	}
	sess.Close()
	select {
	case <-sess.Done():
	default:
		t.Fatal("Close returned before the manager stopped")
	}
	mu.Lock()
	defer mu.Unlock()
	// The waits before dials 2..4 double from MinBackoff to MaxBackoff:
	// 5, 10 and 20 ms nominal, none shorter than its −20 % jitter floor.
	for i, ms := range []time.Duration{4, 8, 16} {
		if gap := dials[i+1].Sub(dials[i]); gap < ms*time.Millisecond {
			t.Errorf("wait before dial %d = %v, want ≥ %v", i+2, gap, ms*time.Millisecond)
		}
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

// TestSessionWaitConnected: while no session is up WaitConnected times
// out with its usual error, a waiter is released by the connect the
// manager publishes, and a manager that has exited answers "session
// manager stopped".
func TestSessionWaitConnected(t *testing.T) {
	ctl, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	channel := netem.NewChannel(ctl.Serve)
	defer channel.Close()

	gate := make(chan struct{})
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 15})
	sw.AddPort(1, "p", 10)
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{
		Dial: []func() (net.Conn, error){func() (net.Conn, error) {
			<-gate
			return channel.Dial()
		}},
		Seed: 1,
	})
	defer sess.Close()
	open := sync.OnceFunc(func() { close(gate) })
	defer open() // before Close, which waits out a dial in progress

	err = sess.WaitConnected(20 * time.Millisecond)
	if want := "dpid 0xf not connected within 20ms"; err == nil || err.Error() != want {
		t.Fatalf("wait with the dial held: %v, want %q", err, want)
	}
	waited := make(chan error, 1)
	go func() { waited <- sess.WaitConnected(10 * time.Second) }()
	open()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if !sess.Connected() {
		t.Fatal("WaitConnected returned with no live session")
	}

	idle := dataplane.StartSession(dataplane.NewSwitch(dataplane.Config{DPID: 16}), dataplane.SessionConfig{})
	if err := idle.WaitConnected(10 * time.Second); err == nil || err.Error() != "session manager stopped" {
		t.Fatalf("wait on a stopped manager: %v", err)
	}
}
