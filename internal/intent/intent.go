// Package intent implements an ONOS-flavored intent framework — the
// follow-on system the keynote's author built: applications state what
// connectivity they want (point-to-point intents); the framework
// compiles each intent to flow rules over the current topology,
// installs them, and recompiles automatically when failures invalidate
// the chosen path. Experiment E5 measures that recompile loop.
package intent

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/zof"
)

// ID names an intent.
type ID uint64

// Endpoint is one side of a point-to-point intent: a switch and the
// port where the traffic enters/exits (a host port).
type Endpoint struct {
	Node topo.NodeID
	Port uint32
}

// Constraints narrow the paths an intent may compile onto.
type Constraints struct {
	// AvoidNodes are switches the path must not traverse (src/dst are
	// exempt).
	AvoidNodes []topo.NodeID
	// AvoidLinks are links the path must not cross.
	AvoidLinks []topo.LinkKey
	// Waypoint, if nonzero, is a switch the path must pass through
	// (service chaining through a middlebox location).
	Waypoint topo.NodeID
}

// Intent requests connectivity for the traffic selected by Match from
// Src to Dst, subject to Constraints.
type Intent struct {
	ID          ID
	Src         Endpoint
	Dst         Endpoint
	Match       zof.Match
	Priority    uint16
	Constraints Constraints
}

// RuleOp is one flow-table operation the compiler emits.
type RuleOp struct {
	DPID uint64
	Mod  *zof.FlowMod
}

// Installer applies rule operations to the network. The controller's
// switch connections satisfy this via a small adapter; tests use fakes.
type Installer interface {
	Apply(ops []RuleOp) error
}

// InstallerFunc adapts a function to Installer.
type InstallerFunc func(ops []RuleOp) error

// Apply implements Installer.
func (f InstallerFunc) Apply(ops []RuleOp) error { return f(ops) }

// Errors.
var (
	ErrNoPath    = errors.New("intent: no path between endpoints")
	ErrNotFound  = errors.New("intent: unknown intent id")
	ErrDuplicate = errors.New("intent: duplicate intent id")
)

// record is the manager's view of one submitted intent.
type record struct {
	intent  Intent
	path    topo.Path
	optimal float64 // cost of the best path at submit time (stretch base)
	rules   []RuleOp
	failed  bool // currently uncompilable (no path)
}

// Manager owns the intent lifecycle.
type Manager struct {
	mu        sync.Mutex
	graph     *topo.Graph
	installer Installer
	records   map[ID]*record

	// Recompiles tracks per-event recompilation latency.
	Recompiles *obs.Histogram
}

// NewManager builds a manager over an initial topology snapshot.
func NewManager(g *topo.Graph, inst Installer) *Manager {
	return &Manager{
		graph:      g.Clone(),
		installer:  inst,
		records:    make(map[ID]*record),
		Recompiles: obs.NewHistogram(),
	}
}

// SetGraph replaces the topology snapshot (e.g. after discovery).
func (m *Manager) SetGraph(g *topo.Graph) {
	m.mu.Lock()
	m.graph = g.Clone()
	m.mu.Unlock()
}

// Submit compiles and installs an intent.
func (m *Manager) Submit(in Intent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.records[in.ID]; dup {
		return ErrDuplicate
	}
	rec := &record{intent: in}
	if err := m.compileLocked(rec); err != nil {
		return err
	}
	rec.optimal = rec.path.Cost
	if err := m.installer.Apply(rec.rules); err != nil {
		return fmt.Errorf("installing intent %d: %w", in.ID, err)
	}
	m.records[in.ID] = rec
	return nil
}

// Withdraw removes an intent and its rules.
func (m *Manager) Withdraw(id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.records[id]
	if !ok {
		return ErrNotFound
	}
	delete(m.records, id)
	return m.installer.Apply(deletions(rec))
}

// compileLocked computes the path and rules for rec on the current
// graph, honoring the intent's constraints.
func (m *Manager) compileLocked(rec *record) error {
	in := rec.intent
	path, ok := m.constrainedPathLocked(in)
	if !ok {
		return ErrNoPath
	}
	var ops []RuleOp
	for i, node := range path.Nodes {
		var out uint32
		if i == len(path.Nodes)-1 {
			out = in.Dst.Port
		} else {
			p, ok := m.graph.PortToward(node, path.Nodes[i+1])
			if !ok {
				return ErrNoPath
			}
			out = p
		}
		ops = append(ops, RuleOp{
			DPID: uint64(node),
			Mod: &zof.FlowMod{
				Command:  zof.FlowAdd,
				Match:    in.Match,
				Priority: in.Priority,
				Cookie:   uint64(in.ID),
				BufferID: zof.NoBuffer,
				Actions:  []zof.Action{zof.Output(out)},
			},
		})
	}
	rec.path = path
	rec.rules = ops
	rec.failed = false
	return nil
}

// constrainedPathLocked resolves the intent's path under its
// constraints. A waypoint splits the search in two legs; the second
// leg additionally avoids the first leg's interior nodes so the
// composite stays simple.
func (m *Manager) constrainedPathLocked(in Intent) (topo.Path, bool) {
	banned := map[topo.NodeID]bool{}
	for _, n := range in.Constraints.AvoidNodes {
		banned[n] = true
	}
	bannedLinks := map[topo.LinkKey]bool{}
	for _, k := range in.Constraints.AvoidLinks {
		bannedLinks[k] = true
	}
	wp := in.Constraints.Waypoint
	if wp == 0 || wp == in.Src.Node || wp == in.Dst.Node {
		return m.graph.ShortestPathAvoiding(in.Src.Node, in.Dst.Node, banned, bannedLinks)
	}
	if banned[wp] {
		return topo.Path{}, false // contradictory constraints
	}
	first, ok := m.graph.ShortestPathAvoiding(in.Src.Node, wp, banned, bannedLinks)
	if !ok {
		return topo.Path{}, false
	}
	secondBanned := make(map[topo.NodeID]bool, len(banned)+len(first.Nodes))
	for n, v := range banned {
		secondBanned[n] = v
	}
	for _, n := range first.Nodes[:len(first.Nodes)-1] {
		secondBanned[n] = true
	}
	second, ok := m.graph.ShortestPathAvoiding(wp, in.Dst.Node, secondBanned, bannedLinks)
	if !ok {
		return topo.Path{}, false
	}
	return topo.Path{
		Nodes: append(append([]topo.NodeID{}, first.Nodes...), second.Nodes[1:]...),
		Cost:  first.Cost + second.Cost,
	}, true
}

// deletions builds the rule removals for a record's current rules.
func deletions(rec *record) []RuleOp {
	out := make([]RuleOp, 0, len(rec.rules))
	for _, op := range rec.rules {
		out = append(out, RuleOp{
			DPID: op.DPID,
			Mod: &zof.FlowMod{
				Command:  zof.FlowDeleteStrict,
				Match:    op.Mod.Match,
				Priority: op.Mod.Priority,
				BufferID: zof.NoBuffer,
			},
		})
	}
	return out
}

// usesLink reports whether the record's path crosses the link.
func usesLink(rec *record, k topo.LinkKey) bool {
	for i := 0; i+1 < len(rec.path.Nodes); i++ {
		a, b := rec.path.Nodes[i], rec.path.Nodes[i+1]
		if (k.A == a && k.B == b) || (k.A == b && k.B == a) {
			return true
		}
	}
	return false
}

// OnLinkDown marks the link failed and recompiles every affected
// intent, installing new rules and removing old ones. It returns how
// many intents were rerouted and how many are now unroutable, plus the
// total recompile+install duration (also recorded in Recompiles).
func (m *Manager) OnLinkDown(k topo.LinkKey) (rerouted, lost int, elapsed time.Duration) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.graph.SetLinkDown(k, true) {
		// Unknown link; still record the (trivial) event duration.
		elapsed = time.Since(start)
		m.Recompiles.Observe(elapsed)
		return 0, 0, elapsed
	}
	var ops []RuleOp
	for _, rec := range m.sortedRecordsLocked() {
		if rec.failed {
			// Previously unroutable: a failure cannot help, skip.
			continue
		}
		if !usesLink(rec, k) {
			continue
		}
		ops = append(ops, deletions(rec)...)
		if err := m.compileLocked(rec); err != nil {
			rec.failed = true
			rec.rules = nil
			lost++
			continue
		}
		ops = append(ops, rec.rules...)
		rerouted++
	}
	if len(ops) > 0 {
		_ = m.installer.Apply(ops)
	}
	elapsed = time.Since(start)
	m.Recompiles.Observe(elapsed)
	return rerouted, lost, elapsed
}

// OnLinkUp restores a link and retries intents that had no path.
func (m *Manager) OnLinkUp(k topo.LinkKey) (recovered int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.graph.SetLinkDown(k, false) {
		return 0
	}
	var ops []RuleOp
	for _, rec := range m.sortedRecordsLocked() {
		if !rec.failed {
			continue
		}
		if err := m.compileLocked(rec); err != nil {
			continue
		}
		ops = append(ops, rec.rules...)
		recovered++
	}
	if len(ops) > 0 {
		_ = m.installer.Apply(ops)
	}
	return recovered
}

func (m *Manager) sortedRecordsLocked() []*record {
	ids := make([]ID, 0, len(m.records))
	for id := range m.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*record, len(ids))
	for i, id := range ids {
		out[i] = m.records[id]
	}
	return out
}

// Path returns the current compiled path of an intent.
func (m *Manager) Path(id ID) (topo.Path, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.records[id]
	if !ok || rec.failed {
		return topo.Path{}, false
	}
	return rec.path, true
}

// Stretch returns currentCost/optimalCost for an intent (1.0 = still
// on a path as good as at submit time).
func (m *Manager) Stretch(id ID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.records[id]
	if !ok || rec.failed || rec.optimal <= 0 {
		return 0, false
	}
	return rec.path.Cost / rec.optimal, true
}

// Len returns the number of live (non-withdrawn) intents.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Failed returns the number of currently unroutable intents.
func (m *Manager) Failed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, rec := range m.records {
		if rec.failed {
			n++
		}
	}
	return n
}
