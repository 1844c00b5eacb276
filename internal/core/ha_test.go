package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// piCounter counts packet-ins per controller.
type piCounter struct {
	mu sync.Mutex
	n  int
}

func (p *piCounter) Name() string { return "pi-counter" }
func (p *piCounter) PacketIn(c *controller.Controller, ev controller.PacketInEvent) bool {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	return true
}
func (p *piCounter) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// attach runs sw's session over an in-process stream served by ctl.
func attach(sw *dataplane.Switch, ctl *controller.Controller) (*dataplane.Datapath, error) {
	a, b := netem.StreamPair()
	ctl.Serve(b)
	return dataplane.Attach(sw, a)
}

// TestControllerFailover exercises the master/slave HA protocol: one
// switch holds sessions to two controllers; only the master receives
// asynchronous messages and may mutate state; when the master dies the
// standby promotes itself with a newer generation id and takes over.
func TestControllerFailover(t *testing.T) {
	recA, recB := &piCounter{}, &piCounter{}
	ctlA, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlA.Close()
	ctlA.Use(recA)
	ctlB, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlB.Close()
	ctlB.Use(recB)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1})
	sw.AddPort(1, "p1", 1000)
	sw.AddPort(2, "p2", 1000)

	dpA, err := attach(sw, ctlA)
	if err != nil {
		t.Fatal(err)
	}
	defer dpA.Close()
	dpB, err := attach(sw, ctlB)
	if err != nil {
		t.Fatal(err)
	}
	defer dpB.Close()
	if err := ctlA.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctlB.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	scA, _ := ctlA.Switch(1)
	scB, _ := ctlB.Switch(1)
	if _, err := scA.SetRole(zof.RoleMaster, 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := scB.SetRole(zof.RoleSlave, 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	frame := udpTestFrame(t)
	sw.HandleFrame(1, frame)
	waitFor(t, 2*time.Second, func() bool { return recA.count() == 1 })
	time.Sleep(30 * time.Millisecond)
	if recB.count() != 0 {
		t.Fatalf("slave controller saw %d packet-ins", recB.count())
	}
	// Slave writes bounce.
	if err := scB.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 1, BufferID: zof.NoBuffer}); err != nil {
		t.Fatal(err)
	}
	if err := scB.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sw.FlowCount() != 0 {
		t.Fatal("slave installed a flow")
	}

	// Master dies; standby promotes with a newer generation.
	ctlA.Close()
	select {
	case <-dpA.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("session A did not end")
	}
	if _, err := scB.SetRole(zof.RoleMaster, 2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sw.HandleFrame(1, frame)
	waitFor(t, 2*time.Second, func() bool { return recB.count() >= 1 })
	// And B can now mutate.
	if err := scB.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 1, BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := scB.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sw.FlowCount() != 1 {
		t.Fatalf("flows = %d after promotion", sw.FlowCount())
	}
}

// TestBothControllersEqualSeeEverything: in the default Equal role,
// both controllers receive asynchronous messages.
func TestBothControllersEqualSeeEverything(t *testing.T) {
	recA, recB := &piCounter{}, &piCounter{}
	ctlA, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlA.Close()
	ctlA.Use(recA)
	ctlB, err := controller.New(controller.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlB.Close()
	ctlB.Use(recB)

	sw := dataplane.NewSwitch(dataplane.Config{DPID: 2})
	sw.AddPort(1, "p1", 1000)
	dpA, err := attach(sw, ctlA)
	if err != nil {
		t.Fatal(err)
	}
	defer dpA.Close()
	dpB, err := attach(sw, ctlB)
	if err != nil {
		t.Fatal(err)
	}
	defer dpB.Close()
	if err := ctlA.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctlB.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sw.HandleFrame(1, udpTestFrame(t))
	waitFor(t, 2*time.Second, func() bool { return recA.count() == 1 && recB.count() == 1 })
}

func udpTestFrame(t *testing.T) []byte {
	t.Helper()
	b := packet.NewBuffer(64)
	b.AppendBytes([]byte("ha"))
	udp := packet.UDP{SrcPort: 1, DstPort: 2}
	udp.SerializeTo(b)
	ipHdr := packet.IPv4{TTL: 9, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2}}
	ipHdr.SerializeTo(b)
	eth := packet.Ethernet{Dst: packet.MAC{2, 2}, Src: packet.MAC{2, 1},
		EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}
