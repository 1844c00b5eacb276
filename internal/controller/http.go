package controller

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/zof"
)

// The northbound REST API: the JSON views operators and external
// systems consume. Every endpoint lives under /v1, errors are always a
// JSON envelope {"error": "..."} with the right status (404 for
// unknown paths and datapaths, 405 with an Allow header for known
// paths with the wrong method), and routing goes through one route
// table instead of per-handler path parsing. Endpoints:
//
//	GET  /v1/switches            connected datapaths and their ports
//	GET  /v1/links               discovered inter-switch links
//	GET  /v1/hosts               learned host locations
//	GET  /v1/flows/{dpid}        live flow entries of one datapath
//	GET  /v1/stats/ports/{dpid}  port counters of one datapath
//	GET  /v1/health              liveness
//	GET  /v1/metrics             the full metric registry, one snapshot
//	GET  /v1/trace/events        last-N control-loop trace events
//	GET  /v1/trace/mode          current trace mode and sampling
//	POST /v1/trace/mode          switch tracing off/sampled/full
//	POST /v1/trace/packet/{dpid} explain-mode pipeline trace of a frame
//	GET  /v1/nf/{dpid}           registered NF stages + state summaries
//	GET  /v1/nf/{dpid}/conntrack paginated conntrack entries (?tuple=
//	                             substring filter, ?offset=, ?limit=)
//
// Network mutations stay with the apps; beyond the trace-mode switch,
// the REST surface is read-only in this prototype (the keynote's
// "visibility first").

type switchJSON struct {
	DPID         uint64     `json:"dpid"`
	NumTables    uint8      `json:"numTables"`
	Capabilities uint32     `json:"capabilities"`
	Ports        []portJSON `json:"ports"`
}

type portJSON struct {
	No        uint32 `json:"no"`
	Name      string `json:"name"`
	MAC       string `json:"mac"`
	Up        bool   `json:"up"`
	SpeedMbps uint32 `json:"speedMbps"`
}

type linkJSON struct {
	A     uint64 `json:"a"`
	APort uint32 `json:"aPort"`
	B     uint64 `json:"b"`
	BPort uint32 `json:"bPort"`
	Down  bool   `json:"down"`
}

type hostJSON struct {
	MAC  string `json:"mac"`
	IP   string `json:"ip,omitempty"`
	DPID uint64 `json:"dpid"`
	Port uint32 `json:"port"`
}

type flowJSON struct {
	Table       uint8    `json:"table"`
	Priority    uint16   `json:"priority"`
	Match       string   `json:"match"`
	Actions     []string `json:"actions"`
	Packets     uint64   `json:"packets"`
	Bytes       uint64   `json:"bytes"`
	IdleTimeout uint16   `json:"idleTimeoutSec,omitempty"`
	HardTimeout uint16   `json:"hardTimeoutSec,omitempty"`
}

// route is one row of the API's route table: a method, a /-split
// pattern whose {name} segments capture path parameters, and the
// handler receiving them.
type route struct {
	method  string
	pattern string
	handler func(w http.ResponseWriter, r *http.Request, p map[string]string)
}

// api is the controller's northbound handler: a route table plus the
// uniform error envelope.
type api struct {
	routes []route
}

func (a *api) handle(method, pattern string, h func(http.ResponseWriter, *http.Request, map[string]string)) {
	a.routes = append(a.routes, route{method: method, pattern: pattern, handler: h})
}

// match tests path against pattern, filling params from {name}
// segments.
func matchPattern(pattern, path string) (map[string]string, bool) {
	ps := strings.Split(pattern, "/")
	xs := strings.Split(path, "/")
	if len(ps) != len(xs) {
		return nil, false
	}
	var params map[string]string
	for i, seg := range ps {
		if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
			if xs[i] == "" {
				return nil, false
			}
			if params == nil {
				params = make(map[string]string, 2)
			}
			params[seg[1:len(seg)-1]] = xs[i]
			continue
		}
		if seg != xs[i] {
			return nil, false
		}
	}
	return params, true
}

// ServeHTTP walks the route table: a path+method hit dispatches; a
// path hit with the wrong method is 405 with the Allow header; no path
// hit is 404. All errors share the JSON envelope.
func (a *api) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	if path == "" {
		path = "/"
	}
	var allowed []string
	for i := range a.routes {
		rt := &a.routes[i]
		params, ok := matchPattern(rt.pattern, path)
		if !ok {
			continue
		}
		if rt.method != r.Method {
			allowed = append(allowed, rt.method)
			continue
		}
		rt.handler(w, r, params)
		return
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		apiError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	apiError(w, http.StatusNotFound, "no such resource: %s", path)
}

// HTTPHandler returns the northbound REST handler; mount it on any
// http.Server (ServeHTTP starts a server on addr for convenience).
func (c *Controller) HTTPHandler() http.Handler {
	a := &api{}
	a.handle("GET", "/v1/health", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		writeJSON(w, map[string]any{"ok": true, "switches": len(c.Switches())})
	})
	a.handle("GET", "/v1/switches", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		var out []switchJSON
		for _, f := range c.nib.Switches() {
			sj := switchJSON{DPID: f.DPID, NumTables: f.NumTables, Capabilities: f.Capabilities}
			for _, p := range c.nib.Ports(f.DPID) {
				sj.Ports = append(sj.Ports, portJSON{
					No: p.No, Name: p.Name, MAC: p.HWAddr.String(),
					Up: p.Up(), SpeedMbps: p.SpeedMbps,
				})
			}
			sort.Slice(sj.Ports, func(i, j int) bool { return sj.Ports[i].No < sj.Ports[j].No })
			out = append(out, sj)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].DPID < out[j].DPID })
		writeJSON(w, out)
	})
	a.handle("GET", "/v1/links", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		var out []linkJSON
		for _, l := range c.nib.Topology().Links() {
			out = append(out, linkJSON{
				A: uint64(l.A), APort: l.APort,
				B: uint64(l.B), BPort: l.BPort,
				Down: l.Down,
			})
		}
		writeJSON(w, out)
	})
	a.handle("GET", "/v1/hosts", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		var out []hostJSON
		for _, h := range c.nib.Hosts() {
			hj := hostJSON{MAC: h.MAC.String(), DPID: h.DPID, Port: h.Port}
			if h.IP != ([4]byte{}) {
				hj.IP = h.IP.String()
			}
			out = append(out, hj)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].MAC < out[j].MAC })
		writeJSON(w, out)
	})
	a.handle("GET", "/v1/flows/{dpid}", func(w http.ResponseWriter, r *http.Request, p map[string]string) {
		sc, ok := c.switchFromParams(p)
		if !ok {
			apiError(w, http.StatusNotFound, "unknown datapath %q", p["dpid"])
			return
		}
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
		}, 3*time.Second)
		if err != nil {
			apiError(w, http.StatusBadGateway, "flow stats: %v", err)
			return
		}
		var out []flowJSON
		for _, fs := range rep.Flows {
			fj := flowJSON{
				Table: fs.TableID, Priority: fs.Priority,
				Match:   fs.Match.String(),
				Packets: fs.PacketCount, Bytes: fs.ByteCount,
				IdleTimeout: fs.IdleTimeout, HardTimeout: fs.HardTimeout,
			}
			for _, act := range fs.Actions {
				fj.Actions = append(fj.Actions, act.String())
			}
			out = append(out, fj)
		}
		writeJSON(w, out)
	})
	a.handle("GET", "/v1/stats/ports/{dpid}", func(w http.ResponseWriter, r *http.Request, p map[string]string) {
		sc, ok := c.switchFromParams(p)
		if !ok {
			apiError(w, http.StatusNotFound, "unknown datapath %q", p["dpid"])
			return
		}
		rep, err := sc.Stats(&zof.StatsRequest{
			Kind: zof.StatsPort, PortNo: zof.PortNone,
		}, 3*time.Second)
		if err != nil {
			apiError(w, http.StatusBadGateway, "port stats: %v", err)
			return
		}
		writeJSON(w, rep.Ports)
	})
	a.handle("GET", "/v1/metrics", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		writeJSON(w, c.reg)
	})
	a.handle("GET", "/v1/trace/events", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				apiError(w, http.StatusBadRequest, "bad n %q", q)
				return
			}
			n = v
		}
		writeJSON(w, map[string]any{
			"mode":     c.rec.Mode().String(),
			"recorded": c.rec.Recorded(),
			"capacity": c.rec.Capacity(),
			"events":   c.rec.Events(n),
		})
	})
	a.handle("GET", "/v1/trace/mode", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		writeJSON(w, map[string]any{
			"mode": c.rec.Mode().String(), "sample_every": c.rec.SampleEvery(),
		})
	})
	a.handle("POST", "/v1/trace/mode", func(w http.ResponseWriter, r *http.Request, _ map[string]string) {
		var req struct {
			Mode        string `json:"mode"`
			SampleEvery int    `json:"sample_every"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			apiError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		mode, ok := obs.ParseTraceMode(req.Mode)
		if !ok {
			apiError(w, http.StatusBadRequest, "bad mode %q (off, sampled, full)", req.Mode)
			return
		}
		if req.SampleEvery > 0 {
			c.rec.SetSampleEvery(req.SampleEvery)
		}
		c.rec.SetMode(mode)
		writeJSON(w, map[string]any{
			"mode": c.rec.Mode().String(), "sample_every": c.rec.SampleEvery(),
		})
	})
	a.handle("POST", "/v1/trace/packet/{dpid}", func(w http.ResponseWriter, r *http.Request, p map[string]string) {
		dpid, err := strconv.ParseUint(p["dpid"], 10, 64)
		if err != nil {
			apiError(w, http.StatusBadRequest, "bad dpid %q", p["dpid"])
			return
		}
		var req struct {
			InPort uint32 `json:"in_port"`
			Frame  string `json:"frame"` // base64 of the raw Ethernet frame
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			apiError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		frame, err := base64.StdEncoding.DecodeString(req.Frame)
		if err != nil {
			apiError(w, http.StatusBadRequest, "bad frame base64: %v", err)
			return
		}
		tr, terr, ok := c.TracePacket(dpid, req.InPort, frame)
		if !ok {
			if _, connected := c.Switch(dpid); !connected {
				apiError(w, http.StatusNotFound, "unknown datapath %d", dpid)
				return
			}
			// Connected but remote: tracing runs on the datapath host,
			// and this one registered no tracer.
			apiError(w, http.StatusNotImplemented, "no pipeline tracer for datapath %d", dpid)
			return
		}
		if terr != nil {
			apiError(w, http.StatusInternalServerError, "trace: %v", terr)
			return
		}
		writeJSON(w, tr)
	})
	a.handle("GET", "/v1/nf/{dpid}", func(w http.ResponseWriter, r *http.Request, p map[string]string) {
		in, ok := c.nfFromParams(w, p)
		if !ok {
			return
		}
		st := in.StageSummaries()
		if st == nil {
			st = []nf.StageStatus{}
		}
		writeJSON(w, map[string]any{"stages": st})
	})
	a.handle("GET", "/v1/nf/{dpid}/conntrack", func(w http.ResponseWriter, r *http.Request, p map[string]string) {
		in, ok := c.nfFromParams(w, p)
		if !ok {
			return
		}
		q := r.URL.Query()
		offset, limit := 0, 0
		if s := q.Get("offset"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				apiError(w, http.StatusBadRequest, "bad offset %q", s)
				return
			}
			offset = v
		}
		if s := q.Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				apiError(w, http.StatusBadRequest, "bad limit %q", s)
				return
			}
			limit = v
		}
		conns := in.ConntrackEntries() // sorted by tuple: stable pagination
		if tuple := q.Get("tuple"); tuple != "" {
			kept := conns[:0]
			for _, ci := range conns {
				if strings.Contains(ci.Tuple, tuple) {
					kept = append(kept, ci)
				}
			}
			conns = kept
		}
		total := len(conns)
		if offset > len(conns) {
			offset = len(conns)
		}
		conns = conns[offset:]
		if limit > 0 && limit < len(conns) {
			conns = conns[:limit]
		}
		if conns == nil {
			conns = []nf.ConnInfo{}
		}
		writeJSON(w, map[string]any{
			"total":   total,
			"offset":  offset,
			"entries": conns,
		})
	})
	return a
}

// nfFromParams resolves the {dpid} parameter to its registered NF
// introspector, writing the error envelope itself on failure: 404 for
// an unknown datapath, 501 for a connected datapath with no local
// introspector (remote hardware), mirroring the trace endpoint.
func (c *Controller) nfFromParams(w http.ResponseWriter, p map[string]string) (NFIntrospector, bool) {
	dpid, err := strconv.ParseUint(p["dpid"], 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad dpid %q", p["dpid"])
		return nil, false
	}
	in, ok := c.nfIntrospector(dpid)
	if !ok {
		if _, connected := c.Switch(dpid); !connected {
			apiError(w, http.StatusNotFound, "unknown datapath %d", dpid)
			return nil, false
		}
		apiError(w, http.StatusNotImplemented, "no nf introspector for datapath %d", dpid)
		return nil, false
	}
	return in, true
}

func (c *Controller) switchFromParams(p map[string]string) (*SwitchConn, bool) {
	dpid, err := strconv.ParseUint(p["dpid"], 10, 64)
	if err != nil {
		return nil, false
	}
	return c.Switch(dpid)
}

// DebugHandler returns the opt-in debug mux: pprof profiling plus the
// metric snapshot, for a loopback-only listener (it exposes heap and
// goroutine internals — never mount it on the operator API).
func (c *Controller) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.reg)
	})
	return mux
}

// ServeHTTP starts the northbound REST server on addr, returning the
// bound address and a shutdown function.
func (c *Controller) ServeHTTP(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("northbound listen: %w", err)
	}
	srv := &http.Server{Handler: c.HTTPHandler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// ServeDebug starts the debug server (pprof + metrics) on addr.
func (c *Controller) ServeDebug(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug listen: %w", err)
	}
	srv := &http.Server{Handler: c.DebugHandler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// apiError writes the uniform JSON error envelope.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
