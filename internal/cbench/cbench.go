// Package cbench is a controller load generator in the mold of the
// classic cbench tool the Maple evaluation used: it emulates N minimal
// switches over real zof/TCP sessions, fires packet-ins at the
// controller, and measures response throughput and latency. Unlike the
// full dataplane it skips the pipeline entirely — the controller is
// the system under test.
package cbench

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/workload"
	"repro/internal/zof"
)

// Config shapes a run.
type Config struct {
	// Addr is the controller's southbound address.
	Addr string
	// Switches is the number of emulated datapaths.
	Switches int
	// Window is the number of outstanding packet-ins per switch
	// (1 = latency mode, larger = throughput mode).
	Window int
	// Duration bounds the run.
	Duration time.Duration
	// Hosts is the emulated host population per switch.
	Hosts int
	// FirstDPID numbers the emulated switches (default 1000).
	FirstDPID uint64
}

// Result aggregates a run.
type Result struct {
	Responses uint64
	Duration  time.Duration
	Latency   *obs.Histogram
}

// PerSecond returns responses/second.
func (r Result) PerSecond() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Responses) / r.Duration.Seconds()
}

// Run drives the controller at addr.
func Run(cfg Config) (Result, error) {
	if cfg.Switches <= 0 {
		cfg.Switches = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Hosts <= 0 {
		cfg.Hosts = 64
	}
	if cfg.FirstDPID == 0 {
		cfg.FirstDPID = 1000
	}
	res := Result{Latency: obs.NewHistogram()}
	var responses atomic.Uint64

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Switches)
	stop := time.Now().Add(cfg.Duration)
	start := time.Now()
	for i := 0; i < cfg.Switches; i++ {
		wg.Add(1)
		go func(dpid uint64, seed int64) {
			defer wg.Done()
			if err := runSwitch(cfg, dpid, seed, stop, &responses, res.Latency); err != nil {
				errs <- err
			}
		}(cfg.FirstDPID+uint64(i), int64(i)*7919+1)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Responses = responses.Load()
	select {
	case err := <-errs:
		return res, err
	default:
	}
	return res, nil
}

// Switch is one emulated datapath: a zof session past the handshake
// that fires packet-ins and matches the controller's responses to them.
// Run drives N of them; BenchmarkE1FlowSetup drives one by hand.
type Switch struct {
	conn     *zof.Conn
	gen      *workload.FlowGen
	buf      *packet.Buffer
	inflight map[uint32]time.Time // bufferID -> send time
	nextBuf  uint32
}

// Dial connects a four-port switch dpid to the controller at addr and
// answers its features request. Packet-ins are drawn from a population
// of hosts hosts, seeded by seed.
func Dial(addr string, dpid uint64, hosts int, seed int64) (*Switch, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cbench dial: %w", err)
	}
	conn := zof.NewConn(raw)
	if err := handshake(conn, dpid); err != nil {
		conn.Close()
		return nil, err
	}
	return &Switch{
		conn:     conn,
		gen:      workload.NewFlowGen(hosts, 1.2, seed),
		buf:      packet.NewBuffer(256),
		inflight: map[uint32]time.Time{},
		nextBuf:  1,
	}, nil
}

func handshake(conn *zof.Conn, dpid uint64) error {
	if err := conn.Handshake(); err != nil {
		return fmt.Errorf("cbench handshake: %w", err)
	}
	fr := &zof.FeaturesReply{DPID: dpid, NumTables: 1,
		Capabilities: zof.CapFlowStats}
	for p := uint32(1); p <= 4; p++ {
		fr.Ports = append(fr.Ports, zof.PortInfo{
			No: p, HWAddr: packet.MACFromUint64(dpid<<8 | uint64(p)),
			Name: fmt.Sprintf("p%d", p), SpeedMbps: 10000,
		})
	}
	for {
		msg, h, err := conn.Receive()
		if err != nil {
			return err
		}
		if _, ok := msg.(*zof.FeaturesRequest); ok {
			return conn.SendXID(fr, h.XID)
		}
	}
}

// Close tears the session down.
func (s *Switch) Close() error { return s.conn.Close() }

// Send fires one packet-in for the next generated flow.
func (s *Switch) Send() error {
	frame := s.gen.Next().Frame(s.buf, 32)
	id := s.nextBuf
	s.nextBuf++
	s.inflight[id] = time.Now()
	_, err := s.conn.Send(&zof.PacketIn{
		BufferID: id,
		TotalLen: uint16(len(frame)),
		InPort:   uint32(1 + id%4),
		Reason:   zof.ReasonNoMatch,
		Data:     frame,
	})
	return err
}

// Await blocks until the controller answers an outstanding packet-in
// (a FlowMod or PacketOut naming its buffer) and returns that
// packet-in's round-trip time.
func (s *Switch) Await() (time.Duration, error) {
	for {
		msg, _, err := s.conn.Receive()
		if err != nil {
			return 0, err
		}
		var bufID uint32 = zof.NoBuffer
		switch m := msg.(type) {
		case *zof.FlowMod:
			bufID = m.BufferID
		case *zof.PacketOut:
			bufID = m.BufferID
		}
		if t0, ok := s.inflight[bufID]; ok {
			delete(s.inflight, bufID)
			return time.Since(t0), nil
		}
	}
}

// runSwitch keeps cfg.Window packet-ins outstanding on one emulated
// switch until stop.
func runSwitch(cfg Config, dpid uint64, seed int64, stop time.Time,
	responses *atomic.Uint64, lat *obs.Histogram) error {

	s, err := Dial(cfg.Addr, dpid, cfg.Hosts, seed)
	if err != nil {
		return err
	}
	defer s.Close()
	for i := 0; i < cfg.Window; i++ {
		if err := s.Send(); err != nil {
			return err
		}
	}
	_ = s.conn.SetReadDeadline(stop.Add(500 * time.Millisecond))
	for time.Now().Before(stop) {
		rtt, err := s.Await()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil // controller saturated past the deadline
			}
			return err
		}
		lat.Observe(rtt)
		responses.Add(1)
		if err := s.Send(); err != nil {
			return err
		}
	}
	return nil
}
