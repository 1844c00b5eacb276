package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/zof"
)

// SessionState is the session manager's externally visible phase.
type SessionState int32

// Session manager states.
const (
	SessionConnecting SessionState = iota // dialing the controller
	SessionConnected                      // a Datapath session is live
	SessionBackoff                        // waiting out a backoff delay
	SessionStopped                        // Close called or attempts exhausted
)

func (s SessionState) String() string {
	switch s {
	case SessionConnecting:
		return "connecting"
	case SessionConnected:
		return "connected"
	case SessionBackoff:
		return "backoff"
	case SessionStopped:
		return "stopped"
	}
	return fmt.Sprintf("SessionState(%d)", int32(s))
}

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
	// Jitter spreads each delay by ±Jitter×delay so a restarting
	// controller is not hit by a synchronized reconnect storm from its
	// whole fleet (default 0.2; 0 keeps pure exponential, negative
	// disables jitter explicitly).
	Jitter float64
	// MaxAttempts gives up after this many consecutive failed dials
	// (0 = retry forever). A successful session resets the count.
	MaxAttempts int
	// ProbeInterval enables switch-side liveness probing: every
	// interval the manager round-trips an Echo on the live session and
	// a full miss budget closes it — turning a mute controller (half-
	// open TCP, partitioned control network) into a detected failure
	// that triggers failover dialing instead of an indefinite hang.
	// 0 disables probing (the default).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual probe; 0 means ProbeInterval.
	ProbeTimeout time.Duration
	// ProbeMisses is the consecutive-miss budget before the session is
	// declared dead. Default 3.
	ProbeMisses int
	// Seed makes the jitter deterministic for tests; 0 derives one from
	// the DPID and the clock.
	Seed int64
	// OnState, when set, observes every state change; err is non-nil
	// for transitions caused by a failure. Called from the manager
	// goroutine — keep it fast and do not call Session methods that
	// block on the manager (Close) from inside it.
	OnState func(state SessionState, attempt int, err error)
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Session keeps one switch attached to its controller across failures:
// it dials, hands the transport to Attach, waits for the session to
// die (controller restart, channel reset, liveness eviction on the far
// end, or the switch-side prober's own eviction), and redials under
// exponential backoff with jitter — rotating through the configured
// endpoint list, so a clustered control plane's standby is dialed as
// soon as the master is gone. Re-attach resync is driven by the
// controller side — the fresh handshake announces the returning DPID,
// apps reinstall on the Reconnect SwitchUp, and cookie reconciliation
// flushes stale flows — so the switch side only has to keep the
// channel coming back.
type Session struct {
	sw  *Switch
	cfg SessionConfig

	mu     sync.Mutex
	dp     *Datapath
	closed bool

	state    atomic.Int32
	sessions atomic.Uint64 // established sessions (1 = initial connect)
	attempts atomic.Uint64 // dials attempted

	// Switch-side liveness accounting (see SessionConfig.ProbeInterval).
	probes      atomic.Uint64
	probeMisses atomic.Uint64
	evictions   atomic.Uint64
	detectNanos atomic.Int64

	quit chan struct{}
	done chan struct{}
}

// StartSession launches the manager for sw; it runs until Close (or
// MaxAttempts consecutive dial failures). The first connection attempt
// starts immediately; use WaitConnected to block for it.
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
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	} else if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.ProbeMisses <= 0 {
		cfg.ProbeMisses = 3
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
	go s.run()
	return s
}

// State returns the manager's current phase.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Connected reports whether a session is currently live.
func (s *Session) Connected() bool { return s.State() == SessionConnected }

// Sessions returns how many sessions have been established (1 after the
// initial connect; each successful reconnect increments it).
func (s *Session) Sessions() uint64 { return s.sessions.Load() }

// Attempts returns how many dials have been made.
func (s *Session) Attempts() uint64 { return s.attempts.Load() }

// Probes returns how many switch-side liveness probes have been sent.
func (s *Session) Probes() uint64 { return s.probes.Load() }

// ProbeMisses returns how many probes timed out or failed.
func (s *Session) ProbeMisses() uint64 { return s.probeMisses.Load() }

// Evictions returns how many sessions the switch-side prober declared
// dead.
func (s *Session) Evictions() uint64 { return s.evictions.Load() }

// LastDetection returns, for the most recent prober eviction, the time
// from the first probe of the fatal miss streak being sent to the
// session being closed — the switch side's detection latency, bounded
// by ProbeInterval × ProbeMisses for ProbeTimeout ≤ ProbeInterval.
// Zero if no eviction has happened.
func (s *Session) LastDetection() time.Duration {
	return time.Duration(s.detectNanos.Load())
}

// Datapath returns the live session, or nil while disconnected.
func (s *Session) Datapath() *Datapath {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dp
}

// WaitConnected blocks until a session is live or the timeout elapses.
func (s *Session) WaitConnected(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !s.Connected() {
		if s.State() == SessionStopped {
			return fmt.Errorf("session manager stopped")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dpid %#x not connected within %v", s.sw.DPID(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Done is closed when the manager exits (Close, or MaxAttempts
// exhausted).
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

func (s *Session) setState(st SessionState, attempt int, err error) {
	s.state.Store(int32(st))
	if s.cfg.OnState != nil {
		s.cfg.OnState(st, attempt, err)
	}
}

// backoffDelay is the wait before consecutive failed attempt n (n ≥ 1):
// MinBackoff doubled per failure, capped at MaxBackoff, spread ±Jitter.
func (s *Session) backoffDelay(n int, rng *rand.Rand) time.Duration {
	d := s.cfg.MinBackoff
	for i := 1; i < n && d < s.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.cfg.MaxBackoff {
		d = s.cfg.MaxBackoff
	}
	if s.cfg.Jitter > 0 {
		d += time.Duration((2*rng.Float64() - 1) * s.cfg.Jitter * float64(d))
		if d < 0 {
			d = 0
		}
	}
	return d
}

func (s *Session) run() {
	defer close(s.done)
	defer s.state.Store(int32(SessionStopped))
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
		s.setState(SessionConnecting, failures+1, nil)
		s.attempts.Add(1)
		var dp *Datapath
		raw, err := s.cfg.Dial[ep]()
		if err == nil {
			dp, err = Attach(s.sw, raw)
		}
		if err != nil {
			failures++
			idx++ // this endpoint is down; try the next one
			if s.cfg.MaxAttempts > 0 && failures >= s.cfg.MaxAttempts {
				s.cfg.Logf("session %#x: giving up after %d attempts: %v", s.sw.DPID(), failures, err)
				s.setState(SessionStopped, failures, err)
				return
			}
			d := s.backoffDelay(failures, rng)
			s.cfg.Logf("session %#x: endpoint %d failed (attempt %d): %v; retrying in %v",
				s.sw.DPID(), ep, failures, err, d)
			s.setState(SessionBackoff, failures, err)
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
		s.setState(SessionConnected, 0, nil)
		if s.cfg.ProbeInterval > 0 {
			go s.probeLoop(dp)
		}

		select {
		case <-s.quit:
			dp.Close()
			return
		case <-dp.Done():
		}
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
		s.setState(SessionBackoff, 1, nil)
		select {
		case <-s.quit:
			return
		case <-time.After(d):
		}
	}
}

// probeLoop is the switch-side liveness prober for one live session:
// sequence-stamped echoes every ProbeInterval, a full miss budget
// closes the session (which wakes run to fail over to the next
// endpoint). The controller side probes too (controller.Config.
// ProbeInterval) — but only the switch side can rescue itself from a
// blackholed channel, since the far end's eviction can never reach it.
func (s *Session) probeLoop(dp *Datapath) {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	var (
		seq       uint64
		misses    int
		firstMiss time.Time
		payload   [16]byte
	)
	binary.BigEndian.PutUint64(payload[:8], s.sw.DPID())
	for {
		select {
		case <-s.quit:
			return
		case <-dp.Done():
			return
		case <-t.C:
		}
		seq++
		binary.BigEndian.PutUint64(payload[8:], seq)
		sent := time.Now()
		s.probes.Add(1)
		err := dp.Echo(payload[:], s.cfg.ProbeTimeout)
		if err == nil {
			misses = 0
			continue
		}
		if errors.Is(err, zof.ErrConnClosed) {
			return // torn down elsewhere
		}
		s.probeMisses.Add(1)
		if misses == 0 {
			firstMiss = sent
		}
		misses++
		if misses >= s.cfg.ProbeMisses {
			s.evictions.Add(1)
			s.detectNanos.Store(int64(time.Since(firstMiss)))
			s.cfg.Logf("session %#x: controller mute for %d probes; closing for failover",
				s.sw.DPID(), misses)
			dp.Close()
			return
		}
	}
}
