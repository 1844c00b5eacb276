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

// ExecOptions tunes plan execution. Both fields are required.
type ExecOptions struct {
	// MatchFor builds the traffic selector for a commodity.
	MatchFor func(c te.CommodityAlloc) zof.Match
	// EgressPort maps a commodity's destination to the port leaving the
	// fabric.
	EgressPort func(dst topo.NodeID) uint32
}

// priority is the priority of every installed TE rule.
const priority = 400

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

// compile renders a configuration as per-switch install messages: each
// commodity's forwarding plus its egress at the destination, under the
// commodity's match, with the select group of a switch that splits it
// named by its (Src, Dst). So a commodity keeps its group ids from one
// configuration to the next, and a re-split is a GroupModify.
func compile(a *te.Allocation, g *topo.Graph, opts ExecOptions) (map[topo.NodeID][]zof.Message, error) {
	if opts.MatchFor == nil || opts.EgressPort == nil {
		return nil, fmt.Errorf("update: ExecOptions.MatchFor and EgressPort are required")
	}
	progs, err := te.Compile(a, g)
	if err != nil {
		return nil, err
	}
	msgs := make(map[topo.NodeID][]zof.Message)
	for _, prog := range progs {
		d := prog.Commodity.Demand
		gid, err := commodityKey{d.Src, d.Dst}.groupID()
		if err != nil {
			return nil, err
		}
		prog.Forwarding[d.Dst] = []topo.WeightedPort{{Port: opts.EgressPort(d.Dst), Weight: 1}}
		rules := controller.CompileForwarding(prog.Forwarding, controller.RuleTemplate{
			Match:    opts.MatchFor(prog.Commodity),
			Priority: priority,
			GroupID:  gid,
		})
		for node, m := range rules {
			msgs[node] = append(msgs[node], m...)
		}
	}
	return msgs, nil
}

// StepOps renders the transition from configuration from to
// configuration to as per-switch operation lists: each node's
// make-before-break diff between the two configurations' rules. A rule
// or group both configurations hold unchanged is not sent, a group
// whose buckets changed is one GroupModify, and a switch that needs no
// change gets no entry.
func StepOps(from, to *te.Allocation, g *topo.Graph, opts ExecOptions) (map[topo.NodeID][]zof.Message, error) {
	fromMsgs, err := compile(from, g, opts)
	if err != nil {
		return nil, err
	}
	toMsgs, err := compile(to, g, opts)
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
	msgs, err := compile(p.Steps[0], g, opts)
	if err != nil {
		return nil, fmt.Errorf("update: configuration 0: %w", err)
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
		ops, err := StepOps(p.Steps[i], p.Steps[i+1], g, opts)
		if err != nil {
			rep.Aborted, rep.FailedStep = true, i
			return rep, fmt.Errorf("update: transition %d: %w", i, err)
		}
		if err := commit(i, ops); err != nil {
			rep.Aborted, rep.FailedStep = true, i
			return rep, fmt.Errorf("update: transition %d: %w (network at configuration %d)", i, err, i)
		}
		rep.StepsApplied++
	}
	return rep, nil
}
