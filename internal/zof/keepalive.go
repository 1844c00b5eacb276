package zof

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Echo round-trips an EchoRequest carrying data. It returns nil once
// the peer has echoed the payload back intact, ErrEchoPayload when the
// payload comes back different (a desynchronized or misbehaving peer),
// ErrConnClosed as soon as the conn closes or its reader fails, and a
// timeout error after timeout (0 waits for one of the others). The
// reply is handed over by Receive, so a reader must be running.
func (c *Conn) Echo(data []byte, timeout time.Duration) error {
	xid := c.NextXID()
	ch := make(chan []byte, 1) // answerEcho's one send never blocks
	c.emu.Lock()
	c.echoes[xid] = ch
	c.emu.Unlock()
	defer func() {
		c.emu.Lock()
		delete(c.echoes, xid)
		c.emu.Unlock()
	}()
	if err := c.SendXID(&EchoRequest{Data: data}, xid); err != nil {
		if c.Err() != nil {
			return ErrConnClosed
		}
		return err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case got := <-ch:
		if !bytes.Equal(got, data) {
			return ErrEchoPayload
		}
		return nil
	case <-c.dead:
		return ErrConnClosed
	case <-expired:
		return fmt.Errorf("zof: echo timed out after %v", timeout)
	}
}

// answerEcho hands an EchoReply's payload to the Echo awaiting xid, if
// one still is.
func (c *Conn) answerEcho(xid uint32, data []byte) {
	c.emu.Lock()
	ch, ok := c.echoes[xid]
	delete(c.echoes, xid)
	c.emu.Unlock()
	if ok {
		ch <- data
	}
}

// ProbeConfig tunes Probe.
type ProbeConfig struct {
	// ID fills the first 8 bytes of every probe's payload (the owner's
	// DPID); a sequence number fills the other 8, so a late reply can
	// never satisfy a fresh probe.
	ID uint64
	// Interval is the probe period.
	Interval time.Duration
	// Timeout bounds one probe; 0 means Interval.
	Timeout time.Duration
	// Misses is the budget of consecutive failed probes; 0 means 3.
	Misses int
}

// ProbeStats count a prober's work. One value may be shared by every
// conn an owner probes (the controller sums its whole fleet).
type ProbeStats struct {
	// Probes counts echoes sent.
	Probes obs.Counter
	// Misses counts echoes that timed out or came back wrong.
	Misses obs.Counter
	// Evictions counts conns closed after a full miss budget.
	Evictions obs.Counter

	lastDetection atomic.Int64
}

// LastDetection is, for the most recent eviction, the time from sending
// the first probe of the fatal miss streak to closing the conn; zero
// before any eviction.
func (s *ProbeStats) LastDetection() time.Duration {
	return time.Duration(s.lastDetection.Load())
}

// Probe is the control channel's keepalive, the same at both ends:
// every cfg.Interval it round-trips an Echo, and cfg.Misses consecutive
// failures close c and return the last one. Closing c is the whole
// eviction — the owner's read loop fails as on any read error and tears
// the session down. Detection takes at most Interval × Misses from the
// first lost probe when Timeout < Interval. Probe returns nil, without
// waiting out an interval, once stop closes or c dies under it.
func (c *Conn) Probe(cfg ProbeConfig, st *ProbeStats, stop <-chan struct{}) error {
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	var (
		payload   [16]byte
		misses    int
		firstMiss time.Time
	)
	binary.BigEndian.PutUint64(payload[:8], cfg.ID)
	for seq := uint64(1); ; seq++ {
		select {
		case <-stop:
			return nil
		case <-c.dead:
			return nil
		case <-t.C:
		}
		binary.BigEndian.PutUint64(payload[8:], seq)
		sent := time.Now()
		st.Probes.Inc()
		err := c.Echo(payload[:], cfg.Timeout)
		if err == nil {
			misses = 0
			continue
		}
		if errors.Is(err, ErrConnClosed) {
			return nil // torn down elsewhere; the owner's teardown runs
		}
		st.Misses.Inc()
		if misses == 0 {
			firstMiss = sent
		}
		if misses++; misses >= cfg.Misses {
			st.Evictions.Inc()
			st.lastDetection.Store(int64(time.Since(firstMiss)))
			c.Close()
			return err
		}
	}
}
