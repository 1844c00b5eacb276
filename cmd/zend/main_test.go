package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("zend", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestBadFlagsRejectedBeforeListening: every flag value is validated
// by parseFlags, which opens no listener — a mistyped -trace must not
// cost an emulated network's bring-up first.
func TestBadFlagsRejectedBeforeListening(t *testing.T) {
	dir := t.TempDir()
	var linear bytes.Buffer
	if err := topo.Linear(3, 1000).WriteJSON(&linear); err != nil {
		t.Fatal(err)
	}
	good, bad := filepath.Join(dir, "good.json"), filepath.Join(dir, "bad.json")
	for name, data := range map[string][]byte{good: linear.Bytes(), bad: []byte("not a topology")} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if o, err := parse("-emulate", "-topo", good); err != nil || o.graph.NumNodes() != 3 {
		t.Fatalf("good topology: %+v, %v", o, err)
	}
	for _, c := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-trace", "bogus"}, `bad -trace "bogus"`},
		{[]string{"-emulate", "-topo", good, "-trace", "bogus"}, `bad -trace "bogus"`},
		{[]string{"-apps", "learning,nosuch"}, `unknown app "nosuch"`},
		{[]string{"-apps", "lb", "-vip", "10.0.0.256"}, `bad IPv4 "10.0.0.256"`},
		{[]string{"-emulate"}, "-emulate requires -topo"},
		{[]string{"-emulate", "-topo", bad}, "invalid character"},
		{[]string{"-emulate", "-topo", filepath.Join(dir, "absent.json")}, "no such file"},
	} {
		_, err := parse(c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
}

func TestFlagsResolve(t *testing.T) {
	o, err := parse("-addr", "127.0.0.1:0", "-apps", "routing, learning,lb", "-trace", "sampled", "-discovery=false")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.apps) != 3 || o.apps[0].Name() != "spf-routing" {
		t.Errorf("apps = %v", o.apps)
	}
	if o.trace != obs.TraceSampled || o.cfg.Addr != "127.0.0.1:0" || o.cfg.Discovery || o.graph != nil {
		t.Errorf("options = %+v", o)
	}
}
