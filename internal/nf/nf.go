// Package nf implements stateful network functions as composable
// datapath stages: connection tracking, stateful NAT, and VXLAN-like
// tunnel encap/decap. A stage is registered on a dataplane switch
// under a small integer id and invoked mid-pipeline by the nf:<id>
// flow action, so the policy deciding *which* traffic traverses a
// function stays in the flow table (intended state, installed
// transactionally, audited) while the function's dynamic state —
// conntrack entries, NAT bindings — lives here, outside the audit
// contract, introspected through StateSummary instead of diffed.
//
// Stages run on the datapath fast path and have one way in: one packet
// per call. Process must not allocate in steady state, must never block
// beyond a short mutex, and must honor Explain mode (record the decision
// in Note, mutate nothing).
package nf

import (
	"time"

	"repro/internal/packet"
)

// Verdict is a stage's decision about one frame.
type Verdict uint8

const (
	// VerdictContinue resumes the rule's remaining actions (and, via
	// output:table, the rest of the pipeline) on the possibly-rewritten
	// frame.
	VerdictContinue Verdict = iota
	// VerdictDrop consumes the frame: the remaining actions of the rule
	// do not run and nothing is forwarded.
	VerdictDrop
)

// String names the verdict for traces.
func (v Verdict) String() string {
	if v == VerdictDrop {
		return "drop"
	}
	return "continue"
}

// Mem is the buffer service the datapath execution lends a stage so
// rewrites stay copy-on-write and allocation-free: the caller's frame
// bytes are never mutated, and replacement buffers are the execution's
// own.
type Mem interface {
	// EnsureOwned returns a writable alias of data, copying it into an
	// execution-owned buffer if the bytes are still borrowed.
	EnsureOwned(data []byte) []byte
	// Grow returns an owned buffer of len(data)+head with data copied
	// at offset head; the first head bytes are uninitialized (encap
	// fills them).
	Grow(data []byte, head int) []byte
	// Shrink returns an owned buffer holding data[off:] (decap).
	Shrink(data []byte, off int) []byte
}

// Packet is one frame traversing a stage. Data and Frame must be kept
// in sync: a stage that rewrites bytes updates the decoded view (or
// re-decodes after reframing). Packets belong to the datapath's
// execution; stages must not retain one past the call.
type Packet struct {
	InPort uint32
	Data   []byte        // current frame bytes
	Frame  *packet.Frame // decoded view of Data
	Mem    Mem
	Now    time.Time

	// Explain puts the stage in recorded-not-executed mode (pipeline
	// trace): look state up, rewrite the private copy, describe the
	// decision in Note — but create no entry, allocate no port, move no
	// counter.
	Explain bool
	Note    string

	// Verdict is the stage's decision, filled by Process.
	Verdict Verdict

	// conn is the entry a conntrack stage resolved for this packet, left
	// for the NAT stage behind it; NAT.resolve says when to trust it.
	conn *conn
}

// Stage is a stateful network function pluggable into the datapath
// pipeline. Implementations must be safe for concurrent calls: the
// datapath invokes stages from every ingress goroutine at once.
type Stage interface {
	Name() string
	// Process runs the stage over one packet and fills its Verdict.
	Process(p *Packet)
	// StateSummary reports the module's dynamic state for
	// introspection (REST, experiments); it may allocate.
	StateSummary() StateSummary
}

// Ticker is implemented by stages with time-driven state (idle
// expiry). The owning switch's Tick drives it.
type Ticker interface {
	Tick(now time.Time)
}

// StateSummary is the uniform introspection view of a module's dynamic
// state. Entries is the live state count (conntrack entries, NAT
// bindings); Counters are module-defined monotonic totals.
type StateSummary struct {
	Entries  int               `json:"entries"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// StageStatus pairs a registered stage id with its module name and
// summary — one row of GET /v1/nf/{dpid}.
type StageStatus struct {
	ID      uint32       `json:"id"`
	Module  string       `json:"module"`
	Summary StateSummary `json:"summary"`
}

// ConnInfo is the JSON view of one conntrack entry.
type ConnInfo struct {
	Tuple   string `json:"tuple"` // "tcp 10.0.0.1:80>10.0.0.2:9090"
	State   string `json:"state"` // "new" or "established"
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	AgeMS   int64  `json:"age_ms"`
	IdleMS  int64  `json:"idle_ms"`
	NAT     string `json:"nat,omitempty"` // "203.0.113.1:30001" once SNAT bound
}

// ConnDumper is implemented by stages holding conntrack-style entries
// (the conntrack module); the REST conntrack endpoint walks it.
type ConnDumper interface {
	Conns(now time.Time) []ConnInfo
}
