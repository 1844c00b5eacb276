// Plan execution: rendering each transition of a congestion-free
// update plan as per-switch wire operations and driving them through a
// caller-supplied transactional commit. Each transition is
// make-before-break — the next configuration's groups and replacement
// rules land before the previous configuration's leftovers are torn
// down — so a switch applying its batch in order never drops a
// commodity. Step N+1 is only attempted after step N's commit
// succeeds; a failed commit aborts the update with the network at the
// last committed configuration, which the plan guarantees is
// congestion-free.
package update

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/zof"
)

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// Compile parameterizes the TE compiler (MatchFor and EgressPort
	// are required, as for te.Compile).
	Compile te.CompileOptions
}

// groupIDStride separates the group-id ranges of adjacent
// configurations: configuration k allocates ids from
// Compile.GroupIDBase + (k%2)*groupIDStride, so a transition's new
// groups never collide with the ones it is about to retire, and a
// make-before-break step never modifies a group that a flow not yet
// repointed still uses.
const groupIDStride = 4096

// CommitFunc applies one transition's per-switch operations
// atomically — all switches or none. The controller's Txn satisfies
// this; tests can substitute anything. The ops map is keyed by
// topology node id, which the zen emulation equates with DPID.
type CommitFunc func(step int, ops map[topo.NodeID][]zof.Message) error

// ExecReport summarizes an execution.
type ExecReport struct {
	// StepsApplied counts committed transitions.
	StepsApplied int
	// Aborted is true when a transition failed; the network remains at
	// configuration index StepsApplied (the last safe one).
	Aborted    bool
	FailedStep int // transition index that failed (valid when Aborted)
}

// compileAt renders configuration index k of a plan as per-switch
// install messages, with the parity-staggered group-id base.
func compileAt(a *te.Allocation, g *topo.Graph, opts ExecOptions, k int) (map[topo.NodeID][]zof.Message, error) {
	co := opts.Compile
	if co.GroupIDBase == 0 {
		co.GroupIDBase = 1000
	}
	co.GroupIDBase += uint32(k%2) * groupIDStride
	progs, err := te.Compile(a, g, co)
	if err != nil {
		return nil, fmt.Errorf("update: compiling step %d: %w", k, err)
	}
	msgs := make(map[topo.NodeID][]zof.Message)
	for _, pr := range progs {
		for node, m := range pr.FlowMods() {
			msgs[node] = append(msgs[node], m...)
		}
	}
	return msgs, nil
}

// StepOps renders the transition from plan configuration fromIndex to
// fromIndex+1 as per-switch operation lists: each node's
// make-before-break diff between the two configurations' rules. A rule
// both configurations hold unchanged is not sent; a switch that needs
// no change gets no entry.
func StepOps(from, to *te.Allocation, g *topo.Graph, opts ExecOptions, fromIndex int) (map[topo.NodeID][]zof.Message, error) {
	fromMsgs, err := compileAt(from, g, opts, fromIndex)
	if err != nil {
		return nil, err
	}
	toMsgs, err := compileAt(to, g, opts, fromIndex+1)
	if err != nil {
		return nil, err
	}
	return controller.Transition(fromMsgs, toMsgs), nil
}

// InitialOps renders the plan's starting configuration (index 0) as
// installable operations — the bootstrap for a network not yet
// carrying the plan's old state.
func (p *Plan) InitialOps(g *topo.Graph, opts ExecOptions) (map[topo.NodeID][]zof.Message, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("update: empty plan")
	}
	msgs, err := compileAt(p.Steps[0], g, opts, 0)
	if err != nil {
		return nil, err
	}
	return controller.Transition(nil, msgs), nil
}

// Execute drives the plan against live switches through commit, one
// congestion-free transition at a time. Transition N+1 is attempted
// only after N's commit succeeded; on failure the update aborts and
// the report records the configuration the network was left at (the
// transactional commit has rolled the failed transition back).
func (p *Plan) Execute(g *topo.Graph, opts ExecOptions, commit CommitFunc) (ExecReport, error) {
	var rep ExecReport
	for i := 0; i+1 < len(p.Steps); i++ {
		ops, err := StepOps(p.Steps[i], p.Steps[i+1], g, opts, i)
		if err != nil {
			rep.Aborted, rep.FailedStep = true, i
			return rep, err
		}
		if err := commit(i, ops); err != nil {
			rep.Aborted, rep.FailedStep = true, i
			return rep, fmt.Errorf("update: transition %d: %w (network at configuration %d)", i, err, i)
		}
		rep.StepsApplied++
	}
	return rep, nil
}
