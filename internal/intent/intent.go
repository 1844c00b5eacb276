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

	"repro/internal/controller"
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

// rules maps each switch (topology node id, which zen equates with
// DPID) to the wire messages that install an intent's part there.
type rules = map[topo.NodeID][]zof.Message

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
	rules   rules
	failed  bool // currently uncompilable (no path)
}

// Manager owns the intent lifecycle. Every change it makes to the
// network is one commit of the make-before-break diff, per switch,
// between the affected intents' old and new rules.
type Manager struct {
	mu      sync.Mutex
	graph   *topo.Graph
	commit  func(ops map[topo.NodeID][]zof.Message) error
	records map[ID]*record

	// Recompiles tracks per-event recompilation latency.
	Recompiles *obs.Histogram
}

// NewManager builds a manager over an initial topology snapshot.
// commit applies one batch of per-switch operations; the manager never
// calls it with an empty map.
func NewManager(g *topo.Graph, commit func(ops map[topo.NodeID][]zof.Message) error) *Manager {
	return &Manager{
		graph:      g.Clone(),
		commit:     commit,
		records:    make(map[ID]*record),
		Recompiles: obs.NewHistogram(),
	}
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
	if err := m.commitLocked(nil, rec.rules); err != nil {
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
	return m.commitLocked(rec.rules, nil)
}

// compileLocked computes the path and rules for rec on the current
// graph, honoring the intent's constraints.
func (m *Manager) compileLocked(rec *record) error {
	in := rec.intent
	path, ok := m.constrainedPathLocked(in)
	if !ok {
		return ErrNoPath
	}
	fw := make(topo.Forwarding, len(path.Nodes))
	ports := make([]topo.WeightedPort, len(path.Nodes))
	for i, node := range path.Nodes {
		out := in.Dst.Port
		if i+1 < len(path.Nodes) {
			if out, ok = m.graph.PortToward(node, path.Nodes[i+1]); !ok {
				return ErrNoPath
			}
		}
		ports[i] = topo.WeightedPort{Port: out, Weight: 1}
		fw[node] = ports[i : i+1]
	}
	rec.path = path
	rec.rules = controller.CompileForwarding(fw, controller.RuleTemplate{
		Match:    in.Match,
		Priority: in.Priority,
		Cookie:   uint64(in.ID),
	})
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
// intent, committing the diff from their old rules to their new ones
// (a hop both paths leave by the same port is not touched). It returns
// how many intents were rerouted and how many are now unroutable, plus
// the total recompile+install duration (also recorded in Recompiles).
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
	old, now := make(rules), make(rules)
	for _, rec := range m.sortedRecordsLocked() {
		if rec.failed {
			// Previously unroutable: a failure cannot help, skip.
			continue
		}
		if !usesLink(rec, k) {
			continue
		}
		merge(old, rec.rules)
		if err := m.compileLocked(rec); err != nil {
			rec.failed = true
			rec.rules = nil
			lost++
			continue
		}
		merge(now, rec.rules)
		rerouted++
	}
	_ = m.commitLocked(old, now)
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
	now := make(rules)
	for _, rec := range m.sortedRecordsLocked() {
		if !rec.failed {
			continue
		}
		if err := m.compileLocked(rec); err != nil {
			continue
		}
		merge(now, rec.rules)
		recovered++
	}
	_ = m.commitLocked(nil, now)
	return recovered
}

// merge appends src's messages to dst's, switch by switch.
func merge(dst, src rules) {
	for node, msgs := range src {
		dst[node] = append(dst[node], msgs...)
	}
}

// commitLocked commits the diff from old to now, if there is one. Link
// handlers do not retry a failed commit: the records name the new paths.
func (m *Manager) commitLocked(old, now rules) error {
	if ops := controller.Transition(old, now); len(ops) > 0 {
		return m.commit(ops)
	}
	return nil
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
