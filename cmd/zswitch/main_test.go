package main

import (
	"testing"
	"time"

	"repro/internal/controller"
)

// TestSurvivesControllerRestart: the daemon's attach path must bring
// the switch back when its controller is replaced on the same address.
func TestSurvivesControllerRestart(t *testing.T) {
	ctl, err := controller.New(controller.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := ctl.Addr()
	_, sess, err := start(addr, 7, 4, 1)
	if err != nil {
		ctl.Close()
		t.Fatal(err)
	}
	defer sess.Close()
	if err := ctl.WaitForSwitches(1, 2*time.Second); err != nil {
		ctl.Close()
		t.Fatal(err)
	}
	ctl.Close()

	ctl2, err := controller.New(controller.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl2.Close()
	if err := ctl2.WaitForSwitches(1, 3*time.Second); err != nil {
		t.Fatalf("after controller restart: %v", err)
	}
	if _, ok := ctl2.Switch(7); !ok {
		t.Fatal("dpid 7 did not register with the restarted controller")
	}
}
