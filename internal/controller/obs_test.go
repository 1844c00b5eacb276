package controller

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

func postJSON(t *testing.T, base, path string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func arpFrame(srcMAC packet.MAC, srcIP, dstIP packet.IPv4Addr) []byte {
	eth, arp := packet.NewARPRequest(srcMAC, srcIP, dstIP)
	buf := packet.NewBuffer(64)
	arp.SerializeTo(buf)
	eth.SerializeTo(buf)
	return append([]byte(nil), buf.Bytes()...)
}

// TestMetricsEndpoint is the acceptance check for the unified
// registry: one GET /v1/metrics snapshot naming metrics from the
// controller, the southbound wire, and each instrumented datapath's
// microcache and flow tables.
func TestMetricsEndpoint(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 2)
	for _, sw := range sws {
		sw.RegisterMetrics(ctl.Metrics(), fmt.Sprintf("dataplane.%d", sw.DPID()))
	}
	addr, stop, err := ctl.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var snap map[string]obs.MetricValue
	if code := getJSON(t, "http://"+addr, "/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if len(snap) < 25 {
		t.Fatalf("registry holds %d metrics, want >= 25", len(snap))
	}
	for _, name := range []string{
		"controller.dispatch.dispatched",
		"controller.dispatch.dropped",
		"controller.dispatch.queued",
		"controller.switches",
		"controller.liveness.probes",
		"controller.txn.latency",
		"controller.audit.audits",
		"controller.nib.switches",
		"zof.conn.tx_msgs",
		"zof.conn.rx_bytes",
		"zof.conn.flushes",
		"dataplane.1.microcache.hits",
		"dataplane.1.flowtable.0.lookups",
		"dataplane.2.flowtable.0.active",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}
	// The handshake alone moves wire counters on both directions.
	if snap["zof.conn.tx_msgs"].Value == 0 || snap["zof.conn.rx_msgs"].Value == 0 {
		t.Errorf("wire counters flat: tx=%d rx=%d",
			snap["zof.conn.tx_msgs"].Value, snap["zof.conn.rx_msgs"].Value)
	}
	if snap["controller.switches"].Value != 2 {
		t.Errorf("controller.switches = %d", snap["controller.switches"].Value)
	}
	if snap["controller.txn.latency"].Kind != obs.KindHistogram {
		t.Errorf("txn latency kind = %s", snap["controller.txn.latency"].Kind)
	}
}

func TestTraceEventsEndpoint(t *testing.T) {
	rec := &recorder{}
	ctl, sws, _ := newTestController(t, rec, 1)
	addr, stop, err := ctl.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// Enable full tracing over the API.
	var mode map[string]any
	if code := postJSON(t, base, "/v1/trace/mode", map[string]any{"mode": "full"}, &mode); code != 200 {
		t.Fatalf("trace mode = %d", code)
	}
	if mode["mode"] != "full" {
		t.Fatalf("mode = %v", mode)
	}

	// A data-plane frame turns into a traced packet_in dispatch.
	sws[0].HandleFrame(1, arpFrame(packet.MAC{2, 0, 0, 0, 0, 7}, packet.IPv4Addr{10, 0, 0, 7}, packet.IPv4Addr{10, 0, 0, 1}))
	waitUntil(t, 2*time.Second, func() bool { return ctl.Tracing().Recorded() > 0 })

	var evs struct {
		Mode     string           `json:"mode"`
		Recorded uint64           `json:"recorded"`
		Events   []obs.TraceEvent `json:"events"`
	}
	if code := getJSON(t, base, "/v1/trace/events?n=10", &evs); code != 200 {
		t.Fatalf("trace events = %d", code)
	}
	if evs.Mode != "full" || evs.Recorded == 0 || len(evs.Events) == 0 {
		t.Fatalf("events = %+v", evs)
	}
	var sawPacketIn bool
	for _, ev := range evs.Events {
		if ev.Kind == "packet_in" && ev.DPID == 1 {
			sawPacketIn = true
			if ev.TotalNS < 0 || ev.QueueNS < 0 || ev.Enqueued.IsZero() {
				t.Errorf("bad stamps: %+v", ev)
			}
			// The recorder app ran under the trace.
			var found bool
			for _, sp := range ev.Apps {
				if sp.App == "recorder" {
					found = true
				}
			}
			if !found {
				t.Errorf("no recorder span in %+v", ev.Apps)
			}
		}
	}
	if !sawPacketIn {
		t.Fatalf("no packet_in trace in %+v", evs.Events)
	}
	// The per-app latency histogram filled in.
	if v, ok := ctl.Metrics().Value("controller.app.recorder.latency"); !ok || v == 0 {
		t.Errorf("app latency histogram = %d, %v", v, ok)
	}

	if code := postJSON(t, base, "/v1/trace/mode", map[string]any{"mode": "warp"}, nil); code != 400 {
		t.Errorf("bad mode = %d", code)
	}
}

// TestTracePacketEndpoint is the acceptance check for explain-mode
// pipeline tracing over the API: the returned per-table trace must
// describe the decision the live pipeline takes.
func TestTracePacketEndpoint(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 2)
	sw := sws[0]
	ctl.RegisterTracer(sw.DPID(), func(inPort uint32, frame []byte) (any, error) {
		return sw.Trace(inPort, frame), nil
	})
	addr, stop, err := ctl.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	sc, _ := ctl.Switch(1)
	if err := sc.InstallFlow(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		Priority: 9, BufferID: zof.NoBuffer,
		Actions: []zof.Action{zof.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	frame := arpFrame(packet.MAC{2, 0, 0, 0, 0, 3}, packet.IPv4Addr{10, 0, 0, 3}, packet.IPv4Addr{10, 0, 0, 4})
	body := map[string]any{"in_port": 1, "frame": base64.StdEncoding.EncodeToString(frame)}

	var tr dataplane.PacketTrace
	if code := postJSON(t, base, "/v1/trace/packet/1", body, &tr); code != 200 {
		t.Fatalf("trace packet = %d", code)
	}
	if len(tr.Steps) != 1 || !tr.Steps[0].Matched || tr.Steps[0].Priority != 9 {
		t.Fatalf("steps = %+v", tr.Steps)
	}
	if len(tr.Outputs) != 1 || tr.Outputs[0].Port != 2 || !strings.HasPrefix(tr.Verdict, "forwarded") {
		t.Fatalf("outputs = %+v verdict %q", tr.Outputs, tr.Verdict)
	}

	// Unknown datapath: 404. Connected datapath without a tracer: 501.
	var e map[string]string
	if code := postJSON(t, base, "/v1/trace/packet/99", body, &e); code != 404 || e["error"] == "" {
		t.Errorf("unknown dpid = %d %v", code, e)
	}
	if code := postJSON(t, base, "/v1/trace/packet/2", body, &e); code != 501 || e["error"] == "" {
		t.Errorf("untraceable dpid = %d %v", code, e)
	}
}

func TestAPIErrorEnvelopes(t *testing.T) {
	ctl, _, _ := newTestController(t, nil, 1)
	addr, stop, err := ctl.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// Unknown path: 404 with a JSON envelope.
	resp, err := http.Get(base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e["error"] == "" {
		t.Errorf("404 envelope = %v", e)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path = %d", resp.StatusCode)
	}

	// Known path, wrong method: 405 with Allow.
	resp, err = http.Post(base+"/v1/switches", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	e = nil
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e["error"] == "" {
		t.Errorf("405 envelope = %v", e)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("wrong method = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}

	// Garbage body on a POST endpoint: 400.
	resp, err = http.Post(base+"/v1/trace/mode", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad body = %d", resp.StatusCode)
	}
}

// TestRegistryAdoptsLiveInstruments pins the Metrics() contract that
// replaced the deleted legacy accessors: the registry names report the
// same live atomics the subsystems bump, and adopted histograms are
// the very instruments the engines observe into.
func TestRegistryAdoptsLiveInstruments(t *testing.T) {
	ctl, sws, _ := newTestController(t, nil, 1)
	sws[0].HandleFrame(1, arpFrame(packet.MAC{2, 0, 0, 0, 0, 5}, packet.IPv4Addr{10, 0, 0, 5}, packet.IPv4Addr{10, 0, 0, 6}))
	reg := ctl.Metrics()
	waitUntil(t, 2*time.Second, func() bool {
		v, _ := reg.Value("controller.dispatch.dispatched")
		return v > 0
	})

	if v, _ := reg.Value("controller.dispatch.dispatched"); uint64(v) != ctl.stats.Dispatched.Value() {
		t.Errorf("dispatched: registry %d, live counter %d", v, ctl.stats.Dispatched.Value())
	}
	if v, _ := reg.Value("controller.async_errors"); uint64(v) != ctl.asyncErrors.Value() {
		t.Errorf("async errors: registry %d, live counter %d", v, ctl.asyncErrors.Value())
	}
	if v, _ := reg.Value("controller.liveness.stale_flows"); uint64(v) != ctl.liveness.StaleFlows.Value() {
		t.Errorf("stale flows disagree: %d", v)
	}
	if v, _ := reg.Value("controller.txn.commits"); uint64(v) != ctl.txnStats.Commits.Value() {
		t.Errorf("txn commits disagree: %d", v)
	}
	if v, _ := reg.Value("controller.audit.audits"); uint64(v) != ctl.auditStats.Audits.Value() {
		t.Errorf("audits disagree: %d", v)
	}
	if v, _ := reg.Value("controller.liveness.last_detection_ns"); v != int64(ctl.liveness.LastDetection()) {
		t.Errorf("last detection disagree: %d", v)
	}
	if v, ok := reg.Value("controller.dispatch.queued"); !ok || v < 0 {
		t.Errorf("queued gauge missing or negative: %d %v", v, ok)
	}
	// The registry histogram is the same instrument the engine observes.
	if reg.Histogram("controller.txn.latency") != ctl.txnStats.Latency {
		t.Error("txn latency histogram is not the adopted instrument")
	}
}
