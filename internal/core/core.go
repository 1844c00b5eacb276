// Package core ties the zen platform together: it stands up a
// controller, realizes a topology in the emulator, attaches every
// software switch to the controller over an in-process zof stream (no
// socket inside one process), and hands the embedder a single handle.
// This is the public entry point the examples and experiments build on.
package core

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/topo"
)

// Options configures Start.
type Options struct {
	// Graph is the topology to realize. Required.
	Graph *topo.Graph
	// Apps are registered with the controller before switches connect.
	Apps []controller.App
	// Controller tunes the control plane; Addr defaults to loopback.
	Controller controller.Config
	// Emu tunes the emulation (link delay/loss, switch config).
	Emu netem.Config
}

// connectTimeout bounds each switch's session setup.
const connectTimeout = 5 * time.Second

// Network is a running zen deployment: control plane + emulated data
// plane, fully connected.
type Network struct {
	Controller *controller.Controller
	Emu        *netem.Network
	datapaths  []*dataplane.Datapath
}

// Start brings the whole platform up and blocks until every switch has
// completed its handshake.
func Start(opts Options) (*Network, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("core: Options.Graph is required")
	}
	ctl, err := controller.New(opts.Controller)
	if err != nil {
		return nil, err
	}
	ctl.Use(opts.Apps...)

	emu := netem.Build(opts.Graph, opts.Emu)
	n := &Network{Controller: ctl, Emu: emu}

	for _, node := range opts.Graph.Nodes() {
		sw := emu.Switches[node]
		sideSwitch, sideCtl := netem.StreamPair()
		ctl.Serve(sideCtl)
		dp, err := dataplane.Attach(sw, sideSwitch)
		if err != nil {
			n.Stop()
			return nil, fmt.Errorf("connecting switch %d: %w", node, err)
		}
		n.datapaths = append(n.datapaths, dp)
		// Emulated datapaths run in-process, so their counters can join
		// the controller's registry and their pipelines answer
		// explain-mode trace requests (POST /v1/trace/packet/{dpid}).
		sw.RegisterMetrics(ctl.Metrics(), fmt.Sprintf("dataplane.%d", sw.DPID()))
		ctl.RegisterTracer(sw.DPID(), func(inPort uint32, frame []byte) (any, error) {
			return sw.Trace(inPort, frame), nil
		})
		// Same in-process privilege backs the stateful-NF introspection
		// API (GET /v1/nf/{dpid} and /v1/nf/{dpid}/conntrack).
		ctl.RegisterNFIntrospector(sw.DPID(), sw)
	}
	if err := ctl.WaitForSwitches(opts.Graph.NumNodes(), connectTimeout); err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

// AddHost attaches an emulated host to a switch.
func (n *Network) AddHost(name string, node topo.NodeID, ip packet.IPv4Addr) (*netem.Host, error) {
	return n.Emu.AttachHost(name, node, ip, netem.PipeConfig{})
}

// DiscoverLinks drives LLDP probing until the NIB holds want links or
// the timeout passes.
func (n *Network) DiscoverLinks(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n.Controller.Probe()
		time.Sleep(10 * time.Millisecond)
		got := n.Controller.NIB().Topology().NumLinks()
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("discovered %d links, want %d", got, want)
		}
	}
}

// Stop tears everything down.
func (n *Network) Stop() {
	for _, dp := range n.datapaths {
		dp.Close()
	}
	n.Controller.Close()
	n.Emu.Stop()
}
