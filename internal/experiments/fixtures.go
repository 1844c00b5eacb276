package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cbench"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/workload"
	"repro/internal/zof"
)

// Fixtures the experiments stand on. Each is written once, here.

// udpFrame returns a private copy of a size-byte Ethernet/IPv4/UDP
// frame from src:sport to dst:53; anything below the 42 header bytes
// yields an empty payload. MACs derive from the addresses, so distinct
// sources are distinct stations.
func udpFrame(size int, src, dst packet.IPv4Addr, sport uint16) []byte {
	payload := size - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - packet.UDPHeaderLen
	spec := workload.FlowSpec{Src: src, Dst: dst, Proto: packet.ProtoUDP, SrcPort: sport, DstPort: 53}
	return append([]byte(nil), spec.Frame(packet.NewBuffer(64), max(payload, 0))...)
}

// twoPortSwitch builds the datapath most experiments test against:
// traffic in on port 1, a no-op sink on port 2.
func twoPortSwitch(cfg dataplane.Config) *dataplane.Switch {
	sw := dataplane.NewSwitch(cfg)
	sw.AddPort(1, "in", 1000)
	sw.AddPort(2, "out", 1000).SetTx(func([]byte) {})
	return sw
}

// installFlow applies fm to sw the way a controller's message would
// and returns the switch's Error reply, if it sent one.
func installFlow(sw *dataplane.Switch, fm *zof.FlowMod) error {
	var err error
	sw.Process(fm, 1, func(rep zof.Message, _ uint32) {
		if e, ok := rep.(*zof.Error); ok {
			err = fmt.Errorf("flow mod: %s", e.Detail)
		}
	})
	return err
}

// missTraffic injects frame(0), frame(1), … on port 1 of every switch,
// one goroutine each with gap between frames, until stop is called:
// packet-ins while a controller is attached, forwarding-path load while
// the control plane is down or changing hands.
func missTraffic(switches []*dataplane.Switch, frame func(i int) []byte, gap time.Duration) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for _, sw := range switches {
		wg.Add(1)
		go func(sw *dataplane.Switch) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				sw.HandleFrame(1, frame(i))
				if gap > 0 {
					time.Sleep(gap)
				}
			}
		}(sw)
	}
	return func() { close(quit); wg.Wait() }
}

// converged reports whether dpid's flow table, read through ctl, holds
// exactly want rules, all stamped with the live session's epoch.
func converged(ctl *controller.Controller, dpid uint64, want int) bool {
	sc, ok := ctl.Switch(dpid)
	if !ok || !sc.Active() {
		return false
	}
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, time.Second)
	if err != nil || len(rep.Flows) != want {
		return false
	}
	for _, f := range rep.Flows {
		if controller.CookieEpoch(f.Cookie) != sc.Epoch() {
			return false
		}
	}
	return true
}

// poll re-checks cond every 2ms until it holds or deadline has passed,
// and reports whether it held.
func poll(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// waitConverged polls until every one of dpids has converged on ctl or
// the deadline passes.
func waitConverged(ctl *controller.Controller, dpids []uint64, want int, deadline time.Duration) bool {
	return poll(deadline, func() bool {
		for _, d := range dpids {
			if !converged(ctl, d, want) {
				return false
			}
		}
		return true
	})
}

// metric reads one value of ctl's registry as a count (0 when absent).
func metric(ctl *controller.Controller, name string) uint64 {
	v, _ := ctl.Metrics().Value(name)
	return uint64(v)
}

// auditRepairs is how many rules the anti-entropy auditor has had to
// repair so far.
func auditRepairs(ctl *controller.Controller) uint64 {
	return metric(ctl, "controller.audit.missing") + metric(ctl, "controller.audit.mismatched") +
		metric(ctl, "controller.audit.alien")
}

// waitAudits polls until ctl's auditor has finished n more passes (one
// switch each) than when it was called, or deadline has passed, and
// returns how many it saw.
func waitAudits(ctl *controller.Controller, n uint64, deadline time.Duration) uint64 {
	base := metric(ctl, "controller.audit.audits")
	var seen uint64
	poll(deadline, func() bool {
		seen = metric(ctl, "controller.audit.audits") - base
		return seen >= n
	})
	return seen
}

// cbenchTarget starts the system under test of a cbench load: a fresh
// controller running app. The caller closes it.
func cbenchTarget(cc controller.Config, app controller.App) (*controller.Controller, error) {
	ctl, err := controller.New(cc)
	if err != nil {
		return nil, err
	}
	ctl.Use(app)
	return ctl, nil
}

// cbenchRun drives load (Addr filled in here) against a fresh
// controller, at its defaults, running app.
func cbenchRun(app controller.App, load cbench.Config) (cbench.Result, error) {
	ctl, err := cbenchTarget(controller.Config{}, app)
	if err != nil {
		return cbench.Result{}, err
	}
	defer ctl.Close()
	load.Addr = ctl.Addr()
	return cbench.Run(load)
}
