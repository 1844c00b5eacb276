// Command zend is the zen controller daemon: it listens for datapath
// (zswitch or emulated) connections on the southbound address and runs
// the selected control applications.
//
// Usage:
//
//	zend -addr :6653 -apps learning
//	zend -addr :6653 -apps routing,learning -discovery
//	zend -addr :6653 -apps learning -topo wan.json -emulate   # self-hosted emulation
//
// With -emulate and -topo, zend realizes the topology in-process with
// emulated switches connected back to itself — a one-command playground.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topo"
)

// options is what the command line resolves to. Everything in it is
// validated before anything listens.
type options struct {
	cfg       controller.Config
	appList   string
	apps      []controller.App
	trace     obs.TraceMode
	graph     *topo.Graph // non-nil with -emulate
	httpAddr  string
	debugAddr string
}

// parseFlags defines zend's flags on fs and turns args into options,
// rejecting a bad -trace, -vip, -apps or -topo without opening a socket.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	addr := fs.String("addr", "127.0.0.1:6653", "southbound listen address")
	appList := fs.String("apps", "learning", "comma-separated: learning,routing,acl,lb,stats")
	discovery := fs.Bool("discovery", true, "run periodic LLDP topology discovery")
	topoFile := fs.String("topo", "", "JSON topology (required with -emulate)")
	emulate := fs.Bool("emulate", false, "also emulate the topology in-process")
	vip := fs.String("vip", "10.0.0.100", "load balancer VIP (with apps=lb)")
	httpAddr := fs.String("http", "", "northbound REST listen address (empty = disabled)")
	debugAddr := fs.String("debug", "", "pprof/metrics debug listen address (empty = disabled)")
	traceMode := fs.String("trace", "off", "control-loop tracing: off, sampled, full")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	o := &options{
		cfg:       controller.Config{Addr: *addr, Discovery: *discovery, Logf: log.Printf},
		appList:   *appList,
		httpAddr:  *httpAddr,
		debugAddr: *debugAddr,
	}
	var ok bool
	if o.trace, ok = obs.ParseTraceMode(*traceMode); !ok {
		return nil, fmt.Errorf("bad -trace %q (want off, sampled or full)", *traceMode)
	}
	for _, name := range strings.Split(*appList, ",") {
		switch strings.TrimSpace(name) {
		case "learning":
			o.apps = append(o.apps, apps.NewLearningSwitch())
		case "routing":
			o.apps = append(o.apps, apps.NewRouting())
		case "acl":
			o.apps = append(o.apps, apps.NewACL())
		case "lb":
			ip, err := parseIPv4(*vip)
			if err != nil {
				return nil, err
			}
			o.apps = append(o.apps, apps.NewLoadBalancer(ip))
		case "stats":
			o.apps = append(o.apps, apps.NewStatsMonitor())
		case "":
		default:
			return nil, fmt.Errorf("unknown app %q", name)
		}
	}
	if *emulate {
		if *topoFile == "" {
			return nil, fmt.Errorf("-emulate requires -topo")
		}
		f, err := os.Open(*topoFile)
		if err != nil {
			return nil, err
		}
		o.graph, err = topo.ReadJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-topo %s: %w", *topoFile, err)
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("zend: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	serveREST := func(ctl *controller.Controller) {
		ctl.Tracing().SetMode(o.trace)
		if o.httpAddr != "" {
			addr, _, err := ctl.ServeHTTP(o.httpAddr)
			if err != nil {
				log.Fatalf("zend: %v", err)
			}
			log.Printf("zend: northbound REST on http://%s/v1/", addr)
		}
		if o.debugAddr != "" {
			addr, _, err := ctl.ServeDebug(o.debugAddr)
			if err != nil {
				log.Fatalf("zend: %v", err)
			}
			log.Printf("zend: debug (pprof, metrics) on http://%s/debug/", addr)
		}
	}

	if g := o.graph; g != nil {
		n, err := core.Start(core.Options{
			Graph:      g,
			Apps:       o.apps,
			Controller: o.cfg,
		})
		if err != nil {
			log.Fatalf("zend: %v", err)
		}
		defer n.Stop()
		log.Printf("zend: emulating %d switches, %d links; southbound %s",
			g.NumNodes(), g.NumLinks(), n.Controller.Addr())
		serveREST(n.Controller)
		if err := n.DiscoverLinks(g.NumLinks(), 10*time.Second); err != nil {
			log.Printf("zend: discovery incomplete: %v", err)
		} else {
			log.Printf("zend: discovered all %d links", g.NumLinks())
		}
		<-sig
		log.Print("zend: shutting down")
		return
	}

	ctl, err := controller.New(o.cfg)
	if err != nil {
		log.Fatalf("zend: %v", err)
	}
	defer ctl.Close()
	ctl.Use(o.apps...)
	serveREST(ctl)
	log.Printf("zend: controller listening on %s, apps: %s", ctl.Addr(), o.appList)
	<-sig
	log.Print("zend: shutting down")
}

func parseIPv4(s string) (packet.IPv4Addr, error) {
	var a packet.IPv4Addr
	var b [4]int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &b[0], &b[1], &b[2], &b[3]); err != nil {
		return a, fmt.Errorf("bad IPv4 %q", s)
	}
	for i, v := range b {
		if v < 0 || v > 255 {
			return a, fmt.Errorf("bad IPv4 %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}
