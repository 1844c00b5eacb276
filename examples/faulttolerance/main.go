// Faulttolerance demonstrates failure recovery end to end: reactive
// shortest-path routing over a diamond topology, a link failure under
// live traffic, and the control plane re-routing around it — with the
// client-observed downtime measured.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topo"
)

func main() {
	// Diamond: two disjoint paths 1-2-4 and 1-3-4.
	graph := topo.New()
	graph.AddLink(topo.Link{A: 1, B: 2, APort: 1, BPort: 1, Capacity: 1000})
	graph.AddLink(topo.Link{A: 2, B: 4, APort: 2, BPort: 1, Capacity: 1000})
	graph.AddLink(topo.Link{A: 1, B: 3, APort: 2, BPort: 1, Capacity: 1000})
	graph.AddLink(topo.Link{A: 3, B: 4, APort: 2, BPort: 2, Capacity: 1000})

	net, err := core.Start(core.Options{
		Graph: graph,
		Apps:  []controller.App{apps.NewRouting(), apps.NewLearningSwitch()},
	})
	if err != nil {
		log.Fatalf("faulttolerance: %v", err)
	}
	defer net.Stop()

	// Discover the four links so routing sees the full diamond.
	if err := net.DiscoverLinks(4, 5*time.Second); err != nil {
		log.Fatalf("discovery: %v", err)
	}
	fmt.Printf("discovered %d links\n", net.Controller.NIB().Topology().NumLinks())

	h1, err := net.AddHost("h1", 1, packet.IPv4Addr{10, 0, 0, 1})
	if err != nil {
		log.Fatal(err)
	}
	h4, err := net.AddHost("h4", 4, packet.IPv4Addr{10, 0, 0, 4})
	if err != nil {
		log.Fatal(err)
	}

	ping := func() (time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		return h1.Ping(ctx, h4.IP)
	}

	rtt, err := ping()
	if err != nil {
		log.Fatalf("baseline ping: %v", err)
	}
	fmt.Printf("baseline: h1 -> h4 rtt=%v\n", rtt)

	// Fail the 1-2 link under traffic and measure client downtime.
	key := topo.LinkKey{A: 1, B: 2, APort: 1, BPort: 1}
	fmt.Printf("failing link %v ...\n", key)
	failedAt := time.Now()
	if err := net.Emu.FailLink(key); err != nil {
		log.Fatal(err)
	}
	var recovered time.Duration
	for attempt := 1; ; attempt++ {
		if rtt, err := ping(); err == nil {
			recovered = time.Since(failedAt)
			fmt.Printf("recovered after %v (attempt %d), rtt=%v\n", recovered, attempt, rtt)
			break
		}
		if time.Since(failedAt) > 10*time.Second {
			log.Fatal("never recovered")
		}
	}

	// Restore and verify both paths work again.
	if err := net.Emu.RestoreLink(key); err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := ping(); err != nil {
		log.Fatalf("ping after restore: %v", err)
	}
	fmt.Println("link restored; connectivity verified")
	fmt.Printf("client-visible downtime: %v\n", recovered)
}
