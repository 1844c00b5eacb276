package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// Params is all a front end may vary, and all an experiment takes: each
// experiment writes its full and its reduced values once, as locals or
// constants in its own file. The reduced ones are what the package's
// tests assert on.
type Params struct {
	Quick bool  // reduced parameters for a fast pass
	Seed  int64 // workload seed, for the experiments that draw one
}

// Experiment is one row of the registry. Run is the experiment itself:
// it returns the rendered table and, for E9 onward, the typed E*Result
// the committed BENCH_<id>.json files hold; E1–E6 return a nil result.
type Experiment struct {
	ID    string // lower-case, as typed at `zbench -exp`
	Title string
	Run   func(Params) (*Table, any, error)
}

// Registry lists every experiment in E-number order. It is the one
// place an id and its title are written down: cmd/zbench loops over it,
// newTable reads titles from it, and the tests walk it.
func Registry() []Experiment {
	return []Experiment{
		{"e1", "reactive flow setup (cbench-style), learning app", E1FlowSetup},
		{"e1a", "app-logic cost: learning app vs null responder", E1aProactiveVsReactive},
		{"e2", "flow table lookup scaling (lookups/sec)", E2Lookup},
		{"e3", "WAN delivered traffic and utilization: TE vs shortest path", E3Utilization},
		{"e3a", "ablation: path diversity k (demand 12000)", E3aPathDiversity},
		{"e4", "congestion-free updates: naive vs planned transitions", E4Update},
		{"e5", "failure recovery: intent recompile vs spanning-tree flush", E5Recovery},
		{"e6", "packet codec throughput", E6Codec},
		{"e9", "control-channel fault recovery: detection, reconnect, convergence", typed(E9FaultRecovery)},
		{"e10", "transactional flow programming: commit, rollback, anti-entropy", typed(E10Transactions)},
		{"e11", "observability overhead: dispatch throughput vs tracing mode (cbench, learning app)", typed(E11ObservabilityOverhead)},
		{"e14", "controller cluster: master failover under crash and partition", typed(E14ClusterFailover)},
		{"e15", "stateful NF stages: audited NAT+VXLAN overlay under conntrack churn", typed(E15StatefulNF)},
	}
}

// typed lets a registry row hold an experiment whose result is a typed
// E*Result.
func typed[R any](run func(Params) (*Table, R, error)) func(Params) (*Table, any, error) {
	return func(p Params) (*Table, any, error) { return run(p) }
}

// Env records where a report was measured.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"` // vcs.revision of the binary, "unknown" under `go run`
}

// Report is the one envelope every experiment's machine-readable output
// takes. Result is the experiment's typed E*Result (null for E1–E6); a
// committed BENCH_<id>.json is that object alone.
type Report struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Env    Env    `json:"env"`
	Quick  bool   `json:"quick"`
	Seed   int64  `json:"seed"`
	Table  *Table `json:"table"`
	Result any    `json:"result"`
}

// Report runs the experiment and wraps what it produced.
func (e Experiment) Report(p Params) (*Report, error) {
	tbl, result, err := e.Run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	env := Env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return &Report{ID: e.ID, Title: e.Title, Env: env, Quick: p.Quick, Seed: p.Seed,
		Table: tbl, Result: result}, nil
}

// PrepareDir creates dir if needed and proves a file can be written
// there, so a bad -json path fails before any experiment has run.
func PrepareDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".zbench-*")
	if err != nil {
		return err
	}
	probe.Close()
	return os.Remove(probe.Name())
}

// WriteFile writes the report to dir/BENCH_<id>.json as indented JSON
// with a trailing newline.
func (r *Report) WriteFile(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+r.ID+".json"), append(data, '\n'), 0o644)
}
