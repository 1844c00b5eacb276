package dataplane

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// backoffJitter spreads each redial delay by ±20 % so a restarting
// controller is not hit by a synchronized reconnect storm from its whole
// fleet.
const backoffJitter = 0.2

// SessionConfig tunes a Session.
type SessionConfig struct {
	// Dial is the failover endpoint list, one transport dialer per
	// controller (a TCP dial closure, or netem.Channel.Dial in process):
	// the manager dials the endpoints in order, sticks with whichever
	// accepted the session, and advances to the next endpoint when a
	// dial fails or a live session dies — so a switch whose master
	// instance crashes re-homes onto a standby without operator help.
	// Each dialer bounds its own attempt. At least one is required.
	Dial []func() (net.Conn, error)
	// MinBackoff is the delay before the first redial after a failure
	// or session loss (default 50ms). Subsequent consecutive failures
	// double it.
	MinBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// ProbeInterval enables switch-side liveness probing: every
	// interval the manager round-trips an Echo on the live session,
	// each bounded by the interval, and a full miss budget closes it —
	// turning a mute controller (half-open TCP, partitioned control
	// network) into a detected failure that triggers failover dialing
	// instead of an indefinite hang. 0 disables probing (the default).
	ProbeInterval time.Duration
	// ProbeMisses is the consecutive-miss budget before the session is
	// declared dead. Default 3.
	ProbeMisses int
	// Seed makes the jitter deterministic for tests; 0 derives one from
	// the DPID and the clock.
	Seed int64
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Session keeps one switch attached to its controller across failures:
// it dials, hands the transport to Attach, waits for the session to
// die (controller restart, channel reset, liveness eviction on the far
// end, or the switch-side prober's own eviction), and redials until
// Close under exponential backoff with jitter — rotating through the
// configured endpoint list, so a clustered control plane's standby is
// dialed as soon as the master is gone. Re-attach resync is driven by
// the controller side — the fresh handshake announces the returning
// DPID, apps reinstall on the Reconnect SwitchUp, and cookie
// reconciliation flushes stale flows — so the switch side only has to
// keep the channel coming back.
type Session struct {
	sw  *Switch
	cfg SessionConfig

	mu     sync.Mutex
	dp     *Datapath
	closed bool

	// link is whether a session is live, paired with a channel closed
	// at the next connect or disconnect; only run publishes it.
	link     atomic.Pointer[linkState]
	sessions atomic.Uint64 // established sessions (1 = initial connect)
	attempts atomic.Uint64 // dials attempted

	// Switch-side liveness accounting (see SessionConfig.ProbeInterval).
	liveness zof.ProbeStats

	quit chan struct{}
	done chan struct{}
}

// linkState is one published value of Session.link. A waiter loads it,
// tests up, then waits on next: a transition between the two has
// already closed next, so no wake-up is lost.
type linkState struct {
	up   bool
	next chan struct{}
}

// setConnected publishes up and wakes every waiter on the old state.
func (s *Session) setConnected(up bool) {
	close(s.link.Swap(&linkState{up: up, next: make(chan struct{})}).next)
}

// StartSession launches the manager for sw; it runs until Close. The
// first connection attempt starts immediately; use WaitConnected to
// block for it.
func StartSession(sw *Switch, cfg SessionConfig) *Session {
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = cfg.MinBackoff
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(sw.DPID())*131 + time.Now().UnixNano()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Session{
		sw:   sw,
		cfg:  cfg,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.link.Store(&linkState{next: make(chan struct{})})
	go s.run()
	return s
}

// Connected reports whether a session is currently live.
func (s *Session) Connected() bool { return s.link.Load().up }

// Sessions returns how many sessions have been established (1 after the
// initial connect; each successful reconnect increments it).
func (s *Session) Sessions() uint64 { return s.sessions.Load() }

// Attempts returns how many dials have been made.
func (s *Session) Attempts() uint64 { return s.attempts.Load() }

// LastDetection returns, for the most recent prober eviction, the time
// from the first probe of the fatal miss streak being sent to the
// session being closed — the switch side's detection latency, about
// ProbeInterval × ProbeMisses. Zero if no eviction has happened.
func (s *Session) LastDetection() time.Duration { return s.liveness.LastDetection() }

// Datapath returns the live session, or nil while disconnected.
func (s *Session) Datapath() *Datapath {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dp
}

// WaitConnected blocks until a session is live, the manager has
// stopped, or the timeout elapses. It wakes on each connect and
// disconnect.
func (s *Session) WaitConnected(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		st := s.link.Load()
		if st.up {
			return nil
		}
		select {
		case <-st.next:
		case <-s.done:
			return fmt.Errorf("session manager stopped")
		case <-deadline.C:
			return fmt.Errorf("dpid %#x not connected within %v", s.sw.DPID(), timeout)
		}
	}
}

// Done is closed when the manager exits: after Close, or at once when
// no endpoint is configured.
func (s *Session) Done() <-chan struct{} { return s.done }

// Close stops the manager and tears down any live session.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	dp := s.dp
	s.mu.Unlock()
	close(s.quit)
	if dp != nil {
		dp.Close()
	}
	<-s.done
	return nil
}

// backoffDelay is the wait before consecutive failed attempt n (n ≥ 1):
// MinBackoff doubled per failure, capped at MaxBackoff, spread
// ±backoffJitter.
func (s *Session) backoffDelay(n int, rng *rand.Rand) time.Duration {
	d := s.cfg.MinBackoff
	for i := 1; i < n && d < s.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.cfg.MaxBackoff {
		d = s.cfg.MaxBackoff
	}
	return d + time.Duration((2*rng.Float64()-1)*backoffJitter*float64(d))
}

func (s *Session) run() {
	defer close(s.done)
	defer s.setConnected(false)
	if len(s.cfg.Dial) == 0 {
		s.cfg.Logf("session %#x: no controller endpoints configured", s.sw.DPID())
		return
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	failures := 0 // consecutive failed dials since the last live session
	idx := 0      // endpoint cursor; advances on dial failure and session loss
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		ep := idx % len(s.cfg.Dial)
		s.attempts.Add(1)
		var dp *Datapath
		raw, err := s.cfg.Dial[ep]()
		if err == nil {
			dp, err = Attach(s.sw, raw)
		}
		if err != nil {
			failures++
			idx++ // this endpoint is down; try the next one
			d := s.backoffDelay(failures, rng)
			s.cfg.Logf("session %#x: endpoint %d failed (attempt %d): %v; retrying in %v",
				s.sw.DPID(), ep, failures, err, d)
			select {
			case <-s.quit:
				return
			case <-time.After(d):
			}
			continue
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			dp.Close()
			return
		}
		s.dp = dp
		s.mu.Unlock()
		failures = 0
		s.sessions.Add(1)
		s.setConnected(true)
		if s.cfg.ProbeInterval > 0 {
			go s.keepalive(dp)
		}

		select {
		case <-s.quit:
			dp.Close()
			return
		case <-dp.Done():
		}
		s.setConnected(false)
		s.mu.Lock()
		s.dp = nil
		s.mu.Unlock()
		// The session died out from under us: advance to the next
		// endpoint (the one that just died is the least likely to be
		// back) and take one MinBackoff beat before redialing so a
		// controller that accepts-then-drops cannot spin the manager
		// hot, then exponential growth on further failures.
		idx++
		d := s.backoffDelay(1, rng)
		s.cfg.Logf("session %#x: endpoint %d lost; redialing endpoint %d in %v",
			s.sw.DPID(), ep, idx%len(s.cfg.Dial), d)
		select {
		case <-s.quit:
			return
		case <-time.After(d):
		}
	}
}

// keepalive runs the channel's prober on one live session: a full miss
// budget closes the connection, and the datapath's teardown wakes run
// to fail over to the next endpoint. The controller side probes too
// (controller.Config.ProbeInterval) — but only the switch side can
// rescue itself from a blackholed channel, since the far end's eviction
// can never reach it.
func (s *Session) keepalive(dp *Datapath) {
	err := dp.conn.Probe(zof.ProbeConfig{
		ID:       s.sw.DPID(),
		Interval: s.cfg.ProbeInterval,
		Misses:   s.cfg.ProbeMisses,
	}, &s.liveness, dp.Done())
	if err != nil {
		s.cfg.Logf("session %#x: controller mute for a full miss budget (last: %v); closing for failover",
			s.sw.DPID(), err)
	}
}
