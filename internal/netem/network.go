package netem

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/topo"
)

// Config shapes an emulated network.
type Config struct {
	Link      PipeConfig       // applied to every inter-switch link
	HostLink  PipeConfig       // applied to host uplinks
	SwitchCfg dataplane.Config // template; DPID is overridden per node
	TickEvery time.Duration    // flow-timeout sweep period; 0 disables
}

// Network is an emulated topology: one software switch per graph node,
// a bidirectional Pipe pair per link, and hosts attached at the edge.
//
// Every link and host pipe is a queue on the network's one scheduler,
// a single goroutine that delivers due frames a pipe at a time — FIFO
// per pipe, round-robin across pipes — into Switch.HandleBurst or
// Host.DeliverBatch, and forwards what those send on in the same loop:
// no goroutine hand-off per hop. Delay and rate set a frame's due time.
// So a delivery callback must not block: it would stall every link.
type Network struct {
	Graph    *topo.Graph
	Switches map[topo.NodeID]*dataplane.Switch

	mu        sync.Mutex
	links     map[topo.LinkKey]*wire
	hosts     map[string]*Host
	hostPorts map[string]HostAttachment
	nextPort  map[topo.NodeID]uint32
	sched     *sched
}

// wire is the two pipes realizing one graph link.
type wire struct {
	key topo.LinkKey
	ab  *Pipe // A -> B
	ba  *Pipe // B -> A
}

// HostAttachment records where a host plugs in.
type HostAttachment struct {
	Switch topo.NodeID
	Port   uint32
	Host   *Host
}

// Build realizes the graph as an emulated network. Switch DPIDs equal
// their node IDs; ports follow the graph's port numbering.
func Build(g *topo.Graph, cfg Config) *Network {
	n := &Network{
		Graph:     g,
		Switches:  make(map[topo.NodeID]*dataplane.Switch),
		links:     make(map[topo.LinkKey]*wire),
		hosts:     make(map[string]*Host),
		hostPorts: make(map[string]HostAttachment),
		nextPort:  make(map[topo.NodeID]uint32),
		sched:     newSched(),
	}
	for _, node := range g.Nodes() {
		sc := cfg.SwitchCfg
		sc.DPID = uint64(node)
		n.Switches[node] = dataplane.NewSwitch(sc)
	}
	for _, l := range g.Links() {
		swA, swB := n.Switches[l.A], n.Switches[l.B]
		pa := swA.AddPort(l.APort, fmt.Sprintf("s%d-eth%d", l.A, l.APort), uint32(l.Capacity))
		pb := swB.AddPort(l.BPort, fmt.Sprintf("s%d-eth%d", l.B, l.BPort), uint32(l.Capacity))
		a, b, aport, bport := l.A, l.B, l.APort, l.BPort
		w := &wire{key: l.Key()}
		// Links deliver coalesced batches (of one frame at BurstSize 0)
		// straight into the switch's batched pipeline walk.
		w.ab = n.sched.pipe(cfg.Link, func(frames [][]byte) { n.Switches[b].HandleBurst(bport, frames) })
		w.ba = n.sched.pipe(cfg.Link, func(frames [][]byte) { n.Switches[a].HandleBurst(aport, frames) })
		pa.SetTx(func(data []byte) { w.ab.Send(data) })
		pb.SetTx(func(data []byte) { w.ba.Send(data) })
		n.links[w.key] = w
		// Track highest used port for host attachment.
		n.nextPort[l.A] = max(n.nextPort[l.A], l.APort)
		n.nextPort[l.B] = max(n.nextPort[l.B], l.BPort)
	}
	if cfg.TickEvery > 0 {
		// The flow-timeout sweep runs on the loop too: a delayed pipe
		// whose delivery sweeps every switch and sends itself the next tick.
		var tick *Pipe
		tick = n.sched.pipe(PipeConfig{Delay: cfg.TickEvery}, func([][]byte) {
			now := time.Now()
			for _, sw := range n.Switches {
				sw.Tick(now)
			}
			tick.Send(nil)
		})
		tick.Send(nil)
	}
	return n
}

// AttachHost plugs a new host into switch node with the given IP,
// using the next free port. The host link uses cfg from Build's
// HostLink (zero PipeConfig if Build was given none).
func (n *Network) AttachHost(name string, node topo.NodeID, ip packet.IPv4Addr, cfg PipeConfig) (*Host, error) {
	sw, ok := n.Switches[node]
	if !ok {
		return nil, fmt.Errorf("netem: no switch %d", node)
	}
	n.mu.Lock()
	if _, dup := n.hosts[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("netem: duplicate host %q", name)
	}
	n.nextPort[node]++
	portNo := n.nextPort[node]
	n.mu.Unlock()

	h := NewHost(name, ip)
	port := sw.AddPort(portNo, fmt.Sprintf("s%d-%s", node, name), 1000)

	toHost := n.sched.pipe(cfg, h.DeliverBatch)
	toSwitch := n.sched.pipe(cfg, func(frames [][]byte) { sw.HandleBurst(portNo, frames) })
	port.SetTx(func(data []byte) { toHost.Send(data) })
	h.SetTx(toSwitch.Send)

	n.mu.Lock()
	n.hosts[name] = h
	n.hostPorts[name] = HostAttachment{Switch: node, Port: portNo, Host: h}
	n.mu.Unlock()
	return h, nil
}

// Host returns the named host.
func (n *Network) Host(name string) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	return h, ok
}

// Attachment reports where a host connects.
func (n *Network) Attachment(name string) (HostAttachment, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.hostPorts[name]
	return a, ok
}

// Hosts lists host names.
func (n *Network) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		out = append(out, name)
	}
	return out
}

// FailLink takes a link down: both pipes blackhole and both switch
// ports report link-down (emitting PortStatus to the controller).
func (n *Network) FailLink(k topo.LinkKey) error {
	return n.setLink(k, true)
}

// RestoreLink brings a failed link back.
func (n *Network) RestoreLink(k topo.LinkKey) error {
	return n.setLink(k, false)
}

func (n *Network) setLink(k topo.LinkKey, down bool) error {
	n.mu.Lock()
	w, ok := n.links[k]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("netem: no link %v", k)
	}
	w.ab.SetDown(down)
	w.ba.SetDown(down)
	n.Graph.SetLinkDown(k, down)
	n.Switches[k.A].SetPortDown(k.APort, down)
	n.Switches[k.B].SetPortDown(k.BPort, down)
	return nil
}

// LinkStats returns the frames carried and dropped per direction.
func (n *Network) LinkStats(k topo.LinkKey) (abSent, abDropped, baSent, baDropped uint64, err error) {
	n.mu.Lock()
	w, ok := n.links[k]
	n.mu.Unlock()
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("netem: no link %v", k)
	}
	return w.ab.Sent.Load(), w.ab.Dropped.Load(), w.ba.Sent.Load(), w.ba.Dropped.Load(), nil
}

// Stop shuts the emulation down: once it returns no frame is delivered
// and every pipe refuses frames.
func (n *Network) Stop() { n.sched.stop() }
