// Command zswitch runs one standalone software datapath that connects
// to a zend controller over TCP. Its ports are loopback-wired in pairs
// (port 1 <-> port 2, 3 <-> 4, ...) so that forwarded traffic is
// observable through port counters even without an attached emulation.
//
// Usage:
//
//	zswitch -controller 127.0.0.1:6653 -dpid 7 -ports 4
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataplane"
)

func main() {
	controllerAddr := flag.String("controller", "127.0.0.1:6653", "controller address")
	dpid := flag.Uint64("dpid", 1, "datapath id")
	ports := flag.Int("ports", 4, "number of ports (paired internally)")
	tables := flag.Int("tables", 1, "pipeline tables")
	tick := flag.Duration("tick", time.Second, "flow-timeout sweep period")
	flag.Parse()

	sw, sess, err := start(*controllerAddr, *dpid, *ports, *tables)
	if err != nil {
		log.Fatalf("zswitch: %v", err)
	}
	defer sess.Close()
	log.Printf("zswitch: dpid %#x connected to %s with %d ports", *dpid, *controllerAddr, *ports)

	stopTick := make(chan struct{})
	go func() {
		t := time.NewTicker(*tick)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case now := <-t.C:
				sw.Tick(now)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Print("zswitch: shutting down")
	case <-sess.Done():
		log.Print("zswitch: session manager stopped")
	}
	close(stopTick)
}

// start builds the loopback-wired switch and attaches it through the
// reconnecting session manager, so the datapath outlives a controller
// restart. The first attach is fail-fast: no session within 5s is an
// error, as a mistyped -controller should be.
func start(controllerAddr string, dpid uint64, ports, tables int) (*dataplane.Switch, *dataplane.Session, error) {
	sw := dataplane.NewSwitch(dataplane.Config{
		DPID:      dpid,
		NumTables: tables,
	})
	created := make([]*dataplane.Port, 0, ports)
	for i := 1; i <= ports; i++ {
		created = append(created, sw.AddPort(uint32(i), "", 1000))
	}
	// Loopback pairing: frames leaving port 2k-1 arrive on port 2k and
	// vice versa.
	for i := 0; i+1 < len(created); i += 2 {
		a, b := uint32(i+1), uint32(i+2)
		created[i].SetTx(func(data []byte) { sw.HandleFrame(b, data) })
		created[i+1].SetTx(func(data []byte) { sw.HandleFrame(a, data) })
	}

	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", controllerAddr, 5*time.Second) }
	sess := dataplane.StartSession(sw, dataplane.SessionConfig{Dial: []func() (net.Conn, error){dial}, Logf: log.Printf})
	if err := sess.WaitConnected(5 * time.Second); err != nil {
		sess.Close()
		return nil, nil, err
	}
	return sw, sess, nil
}
