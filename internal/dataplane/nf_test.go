package dataplane

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

var natPub = packet.IPv4Addr{203, 0, 113, 1}

// countStage counts the packets the datapath hands it.
type countStage struct {
	name string
	drop bool
	seen atomic.Uint64
}

func (c *countStage) Name() string { return c.name }
func (c *countStage) Process(p *nf.Packet) {
	c.seen.Add(1)
	p.Verdict = nf.VerdictContinue
	if c.drop {
		p.Verdict = nf.VerdictDrop
	}
}
func (c *countStage) StateSummary() nf.StateSummary {
	return nf.StateSummary{Counters: map[string]uint64{"seen": c.seen.Load()}}
}

// ctNatSwitch is the canonical NF chain: conntrack then NAT, steered
// by one rule that forwards out port 2.
func ctNatSwitch(t *testing.T, cfg Config) (*Switch, map[uint32]*capture, *nf.Conntrack, *nf.NAT) {
	t.Helper()
	sw, caps := testSwitch(t, cfg)
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPub, PortLo: 20000, PortHi: 29999})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterStage(2, nat); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.NF(2), zof.Output(2))
	return sw, caps, ct, nat
}

func TestNFStageSteering(t *testing.T) {
	sw, caps, ct, nat := ctNatSwitch(t, Config{DropOnMiss: true})

	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 4242, 80, "req"))
	if caps[2].count() != 1 {
		t.Fatalf("forwarded %d frames", caps[2].count())
	}
	var f packet.Frame
	if err := packet.Decode(caps[2].last(t), &f); err != nil {
		t.Fatal(err)
	}
	if f.IPv4.Src != natPub {
		t.Fatalf("egress src = %v, want %v (SNAT)", f.IPv4.Src, natPub)
	}
	if f.UDP.SrcPort < 20000 || f.UDP.SrcPort > 29999 {
		t.Fatalf("egress sport = %d, outside the NAT range", f.UDP.SrcPort)
	}
	if ct.Entries() != 1 || nat.Bindings() != 1 {
		t.Fatalf("state: entries=%d bindings=%d", ct.Entries(), nat.Bindings())
	}

	// Switch-level introspection sees both modules.
	sums := sw.StageSummaries()
	if len(sums) != 2 || sums[0].ID != 1 || sums[0].Module != "conntrack" ||
		sums[1].ID != 2 || sums[1].Module != "nat" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Summary.Entries != 1 {
		t.Errorf("conntrack summary = %+v", sums[0].Summary)
	}
	conns := sw.ConntrackEntries()
	if len(conns) != 1 || conns[0].NAT == "" {
		t.Fatalf("conntrack dump = %+v", conns)
	}
}

func TestNFValidateRejectsUnknownStage(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	var gotErr *zof.Error
	sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 1,
		BufferID: zof.NoBuffer, Actions: []zof.Action{zof.NF(9), zof.Output(2)}},
		1, func(rep zof.Message, _ uint32) {
			if e, ok := rep.(*zof.Error); ok {
				gotErr = e
			}
		})
	if gotErr == nil || gotErr.Code != zof.ErrCodeBadAction {
		t.Fatalf("flow referencing unregistered stage accepted: %+v", gotErr)
	}
	if sw.FlowCount() != 0 {
		t.Fatalf("flows = %d", sw.FlowCount())
	}
}

func TestNFRegisterRefusesDuplicateAndNil(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	st := &countStage{name: "x"}
	if err := sw.RegisterStage(1, st); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterStage(1, st); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := sw.RegisterStage(2, nil); err == nil {
		t.Fatal("nil stage accepted")
	}
	if got, ok := sw.Stage(1); !ok || got != nf.Stage(st) {
		t.Fatalf("Stage(1) = %v, %v", got, ok)
	}
}

func TestNFUnregisterFailsOpen(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	st := &countStage{name: "probe"}
	if err := sw.RegisterStage(1, st); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 1, 2, "x")

	sw.HandleFrame(1, frame)
	if st.seen.Load() != 1 || caps[2].count() != 1 {
		t.Fatalf("live: seen=%d tx=%d", st.seen.Load(), caps[2].count())
	}

	// Unregistering does not cascade to the steering rule: the flow
	// stays (controller-owned intent) and becomes a pass-through.
	if !sw.UnregisterStage(1) {
		t.Fatal("unregister failed")
	}
	if sw.FlowCount() != 1 {
		t.Fatalf("flows after unregister = %d", sw.FlowCount())
	}
	sw.HandleFrame(1, frame)
	if st.seen.Load() != 1 {
		t.Error("unregistered stage still invoked")
	}
	if caps[2].count() != 2 {
		t.Fatalf("fail-open did not forward: tx=%d", caps[2].count())
	}
	// The trace names the hole.
	tr := sw.Trace(1, frame)
	if len(tr.Stages) != 1 || !tr.Stages[0].Missing || tr.Stages[0].ID != 1 {
		t.Fatalf("trace stages = %+v", tr.Stages)
	}
}

func TestNFDropConsumesFrame(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	if err := sw.RegisterStage(1, &countStage{name: "fw", drop: true}); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 1, 2, "deny")

	sw.HandleFrame(1, frame)
	if caps[2].count() != 0 {
		t.Fatal("dropped frame was forwarded")
	}
	tr := sw.Trace(1, frame)
	if tr.Verdict != "dropped: nf fw" {
		t.Errorf("verdict = %q", tr.Verdict)
	}
	if len(tr.Stages) != 1 || tr.Stages[0].Verdict != "drop" {
		t.Errorf("stages = %+v", tr.Stages)
	}
}

func TestNFStageRegisterUnregisterDuringTraffic(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true, Clock: time.Now})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))

	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = udpFrame(t, hostA, hostB, uint16(1000+i), 80, "hammer")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w == 0 {
					sw.HandleFrame(1, frames[i%len(frames)])
				} else {
					sw.HandleBurst(1, frames[:8])
				}
			}
		}(w)
	}
	// Churn the stage map under live traffic: the RCU snapshot means
	// in-flight frames see either the old or new map, never a torn one.
	// With a registry attached the churn also registers and removes the
	// stage's gauge between registry snapshots.
	sw.HandleFrame(1, frames[0])
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dp")
	probe := &countStage{name: "churn"}
	for i := 0; i < 200; i++ {
		if err := sw.RegisterStage(2, probe); err != nil {
			t.Error(err)
			break
		}
		reg.Snapshot()
		sw.UnregisterStage(2)
	}
	close(stop)
	wg.Wait()
	if ct.Entries() == 0 {
		t.Error("no traffic was tracked during the churn")
	}
}

// TestNFConntrackExpiryDuringBursts races sweeps against the bursts
// that re-create the entries: conntrack alone, and with a NAT stage
// behind it taking the entries conntrack hands over.
func TestNFConntrackExpiryDuringBursts(t *testing.T) {
	t.Run("conntrack", conntrackExpiryDuringBursts)
	t.Run("nat-behind", handOffNeverOutlivesItsEntry)
}

func conntrackExpiryDuringBursts(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true, Clock: time.Now})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Millisecond})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))

	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = udpFrame(t, hostA, hostB, uint16(2000+i), 80, "churn")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // sweeps race the bursts that recreate the entries
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sw.Tick(time.Now())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		sw.HandleBurst(1, frames[(i%8)*8:(i%8)*8+8])
	}
	close(stop)
	wg.Wait()

	s := ct.StateSummary()
	if s.Counters["created"] == 0 {
		t.Fatal("no entries created")
	}
	if caps[2].count() != 300*8 {
		t.Fatalf("tx = %d, want %d", caps[2].count(), 300*8)
	}
	// With traffic stopped, the table drains.
	time.Sleep(5 * time.Millisecond)
	sw.Tick(time.Now())
	if ct.Entries() != 0 {
		t.Fatalf("entries after drain = %d", ct.Entries())
	}
}

// hookStage runs before and after around the stage it wraps; the
// packet, and whatever one stage leaves on it for the next, passes
// through untouched.
type hookStage struct {
	nf.Stage
	before, after func(p *nf.Packet)
}

func (h hookStage) Process(p *nf.Packet) {
	if h.before != nil {
		h.before(p)
	}
	h.Stage.Process(p)
	if h.after != nil {
		h.after(p)
	}
}

// handOffNeverOutlivesItsEntry hammers the conntrack -> NAT
// hand-off against expiry: conntrack leaves the entry it resolved on
// the packet and NAT uses it instead of a second lookup, while a sweeper
// with a one-nanosecond idle horizon removes entries (and returns their
// public ports to the pool) between the two stages and between one
// frame and the next. Whenever a whole sweep ran between a frame
// leaving conntrack and entering NAT, the entry is gone and its port
// released — only this goroutine creates entries, so nothing re-created
// it — and the frame must be the counted unbound drop a lookup would
// have made it, never an egress carrying a port the pool has back.
// Every 15th stage call waits for such a sweep — an odd period, because
// the calls alternate conntrack, NAT, and an even one would only ever
// wait between frames — so both the never-bound and the
// bound-then-released case happen a thousand times a run.
func handOffNeverOutlivesItsEntry(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true, Clock: time.Now})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Nanosecond})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPub, PortLo: 20000, PortHi: 20999})

	// The sweeper numbers its sweeps; begun and ended bracket each one.
	var begun, ended atomic.Uint64
	var calls int
	awaitSweep := func(*nf.Packet) {
		if calls++; calls%15 == 0 {
			for n := begun.Load(); ended.Load() <= n; {
				runtime.Gosched()
			}
		}
	}
	var leftCT uint64 // sweeps begun when the frame left conntrack; ingress goroutine only
	var gone bool     // a whole sweep ran since
	var sweptBetween, translatedStale int
	if err := sw.RegisterStage(1, hookStage{Stage: ct, after: func(p *nf.Packet) {
		leftCT = begun.Load()
		awaitSweep(p)
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterStage(2, hookStage{Stage: nat,
		before: func(*nf.Packet) { gone = ended.Load() > leftCT },
		after: func(p *nf.Packet) {
			if gone {
				sweptBetween++
				if p.Verdict != nf.VerdictDrop {
					translatedStale++
				}
			}
			awaitSweep(p)
		}}); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.NF(2), zof.Output(2))

	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = udpFrame(t, hostA, hostB, uint16(2000+i), 80, "churn")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
				begun.Store(n)
				ct.Sweep(time.Now())
				ended.Store(n)
			}
		}
	}()
	const bursts = 2000
	run := make([][]byte, 8) // one microflow: each frame's hand-off is its own
	for i := 0; i < bursts; i++ {
		for j := range run {
			run[j] = frames[i%len(frames)]
		}
		sw.HandleBurst(1, run)
	}
	close(stop)
	wg.Wait()
	t.Logf("%d of %d frames had their entry swept on the way to NAT", sweptBetween, bursts*8)

	if sweptBetween < bursts*8/16 {
		t.Errorf("only %d frames had their entry swept on the way to NAT; every 30th stage call waits for it there", sweptBetween)
	}
	if translatedStale != 0 {
		t.Errorf("%d frames were translated through an entry swept before they reached NAT", translatedStale)
	}
	s := nat.StateSummary().Counters
	if s["exhausted"] != 0 || uint64(caps[2].count())+s["unbound"] != bursts*8 {
		t.Errorf("egress %d + unbound %d != %d offered (exhausted %d)", caps[2].count(), s["unbound"], bursts*8, s["exhausted"])
	}
	if s["allocated"]-s["released"] != uint64(nat.Bindings()) {
		t.Errorf("allocated %d - released %d != %d bindings", s["allocated"], s["released"], nat.Bindings())
	}
	// Quiescence: every entry expires and takes its binding along — a
	// port bound to an entry already swept would stay out of the pool.
	ct.Sweep(time.Now().Add(time.Second))
	if ct.Entries() != 0 || nat.Bindings() != 0 {
		t.Errorf("after the last sweep: %d entries, %d bindings", ct.Entries(), nat.Bindings())
	}
}

// TestNFTraceRecordedNotExecuted pins the explain-mode contract for
// stages: a trace walks conntrack and NAT, reports what they would do,
// and leaves every byte of dynamic state untouched.
func TestNFTraceRecordedNotExecuted(t *testing.T) {
	sw, caps, ct, nat := ctNatSwitch(t, Config{DropOnMiss: true})
	frame := udpFrame(t, hostA, hostB, 7777, 443, "quiet")

	// A trace of a *fresh* flow predicts NAT's drop (no conntrack entry
	// exists, and explain mode will not create one) — that asymmetry is
	// the recorded-not-executed contract, so establish the flow first.
	fresh := sw.Trace(1, frame)
	if fresh.Verdict != "dropped: nf nat" {
		t.Fatalf("fresh-flow trace verdict = %q", fresh.Verdict)
	}
	if ct.Entries() != 0 || nat.Bindings() != 0 {
		t.Fatalf("fresh-flow trace created state: entries=%d bindings=%d",
			ct.Entries(), nat.Bindings())
	}
	sw.HandleFrame(1, frame)

	// On the established flow, trace and live execution agree.
	tr := assertParity(t, sw, caps, 1, frame)
	if len(tr.Stages) != 2 {
		t.Fatalf("stages = %+v", tr.Stages)
	}
	if tr.Stages[0].Module != "conntrack" || tr.Stages[0].Note == "" {
		t.Errorf("conntrack record = %+v", tr.Stages[0])
	}
	if ct.Entries() != 1 || nat.Bindings() != 1 {
		t.Fatalf("state after live frames: entries=%d bindings=%d", ct.Entries(), nat.Bindings())
	}

	// Trace-only passes move nothing at all, ghost flows included.
	ctMid, natMid := ct.StateSummary(), nat.StateSummary()
	for i := 0; i < 10; i++ {
		tr = sw.Trace(1, udpFrame(t, hostA, hostB, uint16(8000+i), 443, "ghost"))
		if len(tr.Stages) != 2 {
			t.Fatalf("trace %d stages = %+v", i, tr.Stages)
		}
	}
	if !reflect.DeepEqual(ct.StateSummary(), ctMid) || !reflect.DeepEqual(nat.StateSummary(), natMid) {
		t.Errorf("trace moved NF state:\nct  %+v -> %+v\nnat %+v -> %+v",
			ctMid, ct.StateSummary(), natMid, nat.StateSummary())
	}
}

func TestNFStageMetricsRegistered(t *testing.T) {
	sw, _, _, _ := ctNatSwitch(t, Config{DropOnMiss: true})
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	for _, name := range []string{
		"dataplane.42.nf.conntrack.entries",
		"dataplane.42.nf.nat.entries",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "m"))
	if v, _ := reg.Value("dataplane.42.nf.conntrack.entries"); v != 1 {
		t.Errorf("conntrack entries gauge = %d", v)
	}

	// A stage registered after the registry was attached gets its gauge
	// too, and loses it when it is unregistered.
	const late = "dataplane.42.nf.late.entries"
	if err := sw.RegisterStage(3, &countStage{name: "late"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Value(late); !ok {
		t.Errorf("metric %s not registered for a stage added after RegisterMetrics", late)
	}
	sw.UnregisterStage(3)
	if _, ok := reg.Value(late); ok {
		t.Errorf("metric %s still registered after UnregisterStage", late)
	}
	if _, ok := reg.Value("dataplane.42.nf.nat.entries"); !ok {
		t.Error("unregistering one stage removed another's gauge")
	}
}

// TestNFChainFrameBurstParity pins "a frame is a 1-frame burst" on the
// full chain: the same frames through [nf:ct, nf:nat, nf:encap, output] as
// N HandleFrame calls and as one HandleBurst leave byte-identical
// egress, in order, and equal stage counters.
func TestNFChainFrameBurstParity(t *testing.T) {
	build := func() (*Switch, *capture, []nf.Stage) {
		sw, caps := testSwitch(t, Config{DropOnMiss: true})
		ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})
		stages := []nf.Stage{ct,
			nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPub, PortLo: 20000, PortHi: 29999}),
			nf.NewTunnelEncap(nf.TunnelConfig{VNI: 7,
				LocalIP: packet.IPv4Addr{172, 16, 0, 1}, RemoteIP: packet.IPv4Addr{172, 16, 0, 2}})}
		for i, st := range stages {
			if err := sw.RegisterStage(uint32(i+1), st); err != nil {
				t.Fatal(err)
			}
		}
		addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.NF(2), zof.NF(3), zof.Output(2))
		return sw, caps[2], stages
	}
	// Five flows interleaved in runs of varying length, so the burst
	// engine sees multi-frame groups, singletons and revisited flows.
	var frames [][]byte
	for i := 0; i < 48; i++ {
		flow := (i / 3) % 5
		frames = append(frames, udpFrame(t, hostA, hostB, uint16(4000+flow), 80, fmt.Sprintf("payload-%02d", i)))
	}

	swF, capF, stF := build()
	for _, fr := range frames {
		swF.HandleFrame(1, fr)
	}
	swB, capB, stB := build()
	swB.HandleBurst(1, frames)

	if capF.count() != len(frames) || capB.count() != len(frames) {
		t.Fatalf("egress: frame path %d, burst path %d, want %d", capF.count(), capB.count(), len(frames))
	}
	for i := range capF.frames {
		if !bytes.Equal(capF.frames[i], capB.frames[i]) {
			t.Fatalf("egress frame %d differs between the frame and burst paths", i)
		}
	}
	for i := range stF {
		if f, b := stF[i].StateSummary(), stB[i].StateSummary(); !reflect.DeepEqual(f, b) {
			t.Errorf("%s summary: frame path %+v, burst path %+v", stF[i].Name(), f, b)
		}
	}
}

func TestNFExplainNoteInTraceJSON(t *testing.T) {
	sw, _, _, _ := ctNatSwitch(t, Config{DropOnMiss: true})
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 4000, 80, "live"))
	tr := sw.Trace(1, udpFrame(t, hostA, hostB, 4000, 80, "live"))
	// The established entry is visible to the trace, read-only.
	if len(tr.Stages) != 2 || tr.Stages[0].Note == "" {
		t.Fatalf("stages = %+v", tr.Stages)
	}
	want := fmt.Sprintf("snat %s:4000", hostA)
	if got := tr.Stages[1].Note; len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("nat note = %q, want prefix %q", got, want)
	}
}
