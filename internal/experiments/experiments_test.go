package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseF parses a rendered numeric cell.
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "a note")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X: demo ==", "a  bb", "1  2", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestE1SmallRun(t *testing.T) {
	tbl, err := E1FlowSetup(E1Config{
		SwitchCounts: []int{1, 2},
		Window:       4,
		Duration:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if rate := parseF(t, row[2]); rate <= 0 {
			t.Errorf("rate = %v", rate)
		}
	}
}

func TestE2ShapeHolds(t *testing.T) {
	tbl := E2Lookup(E2Config{Sizes: []int{100, 5000}, Measure: 30 * time.Millisecond})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	small, big := tbl.Rows[0], tbl.Rows[1]
	// The table does not decay with size the way a scan would: 50x the
	// rules cost what a colder cache costs, not 50x the time.
	for _, col := range []int{1, 2} {
		if parseF(t, big[col]) < parseF(t, small[col])/10 {
			t.Errorf("%s decays with table size: %v -> %v", tbl.Header[col], small[col], big[col])
		}
	}
	// It pays per shape probed: eight shapes cost more than one.
	if parseF(t, big[2]) >= parseF(t, big[1]) {
		t.Errorf("8 shapes (%v) not slower than 1 shape (%v) at 5000 entries", big[2], big[1])
	}
	if parseF(t, big[3]) < parseF(t, big[1]) {
		t.Errorf("exact (%v) slower than the table (%v) at 5000 entries", big[3], big[1])
	}
}

func TestE3ShapeHolds(t *testing.T) {
	tbl, err := E3Utilization(E3Config{Scales: []float64{0.2, 1.5}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	light, heavy := tbl.Rows[0], tbl.Rows[1]
	// At light load both deliver ~everything.
	if parseF(t, light[4]) < 0.99 {
		t.Errorf("TE fraction at light load = %v", light[4])
	}
	// At heavy load TE wins.
	if parseF(t, heavy[6]) < 1.05 {
		t.Errorf("gain at heavy load = %v", heavy[6])
	}
	// TE utilization above baseline at heavy load.
	if parseF(t, heavy[7]) <= parseF(t, heavy[8]) {
		t.Errorf("TE meanU %v <= SP meanU %v", heavy[7], heavy[8])
	}
}

func TestE3aMonotoneInK(t *testing.T) {
	tbl, err := E3aPathDiversity([]int{1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The max-min objective (worst-off satisfaction, column 2) improves
	// with path diversity.
	if parseF(t, tbl.Rows[1][2]) < parseF(t, tbl.Rows[0][2]) {
		t.Errorf("k=4 min-satisfaction %v < k=1 %v", tbl.Rows[1][2], tbl.Rows[0][2])
	}
}

func TestE4ShapeHolds(t *testing.T) {
	tbl, err := E4Update(E4Config{Scratches: []float64{0.10}, Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows[0]
	if row[3] != "0" {
		t.Errorf("planner failed %v times with 10%% scratch", row[3])
	}
	// Steps within the SWAN bound (column 6).
	if parseF(t, row[4]) > parseF(t, row[6]) {
		t.Errorf("max steps %v exceed bound %v", row[4], row[6])
	}
}

func TestE5ShapeHolds(t *testing.T) {
	tbl, err := E5Recovery(E5Config{Failures: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// Mean stretch sane.
		if s := parseF(t, row[6]); s < 1 || s > 2 {
			t.Errorf("%s stretch = %v", row[0], s)
		}
		// Nothing permanently lost after restores.
		if row[7] != "0" {
			// Losses during a failure window are possible on the WAN's
			// spur links; just require the column parses.
			parseF(t, row[7])
		}
	}
}

func TestE6ZeroAllocDecode(t *testing.T) {
	tbl := E6Codec()
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[1], "decode") && row[3] != "0" {
			t.Errorf("%s %s allocates: %s allocs/op", row[0], row[1], row[3])
		}
	}
}

func TestE9QuickLifecycle(t *testing.T) {
	tbl, res, err := E9FaultRecovery(E9Config{
		MissBudgets: []int{2},
		Backoffs:    []time.Duration{10 * time.Millisecond},
		Rules:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || len(res.Points) != 1 {
		t.Fatalf("rows = %d points = %d", len(tbl.Rows), len(res.Points))
	}
	pt := res.Points[0]
	if !pt.Converged {
		t.Fatal("lifecycle did not converge")
	}
	if pt.DetectMS <= 0 || pt.DetectMS > pt.DetectBoundMS {
		t.Errorf("detection %vms outside (0, %vms]", pt.DetectMS, pt.DetectBoundMS)
	}
	if pt.StaleFlushed < 1 {
		t.Errorf("stale flushed = %d, want >= 1", pt.StaleFlushed)
	}
	if pt.ReconnectMS <= 0 || pt.FlapConvergeMS <= 0 || pt.CrashConvergeMS <= 0 {
		t.Errorf("timings missing: %+v", pt)
	}
}

func TestE10QuickTransactions(t *testing.T) {
	_, res, err := E10Transactions(E10Config{
		Switches:     3,
		Txns:         10,
		OpsPerSwitch: 2,
		PreRules:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAborted || !res.RejectRolledBack || !res.RejectTablesIntact {
		t.Errorf("rejection rollback: %+v", res)
	}
	if !res.CrashAborted || !res.CrashSurvivorsIntact || !res.CrashConverged {
		t.Errorf("crash recovery: %+v", res)
	}
	if !res.DriftRepaired {
		t.Error("drift not repaired")
	}
	// Acceptance: drift converges within two audit intervals. The poll
	// itself adds slack, so budget a fraction over two.
	if res.DriftAuditIntervals > 2.5 {
		t.Errorf("drift repair took %.2f audit intervals", res.DriftAuditIntervals)
	}
	if res.QuiescentRepairs != 0 {
		t.Errorf("quiescent repairs = %d, want 0", res.QuiescentRepairs)
	}
	if res.CommitP95MS <= 0 {
		t.Errorf("commit latency missing: %+v", res)
	}
}

func TestE14QuickFailover(t *testing.T) {
	e14Logf = t.Logf
	defer func() { e14Logf = nil }()
	tbl, res, err := E14ClusterFailover(E14Config{Switches: 2, Rules: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		f    E14Failover
	}{{"crash", res.Crash}, {"partition", res.Partition}} {
		if !f.f.Converged {
			t.Fatalf("%s scenario did not converge", f.name)
		}
		if f.f.Takeovers != uint64(res.Switches) {
			t.Errorf("%s: takeovers = %d, want %d", f.name, f.f.Takeovers, res.Switches)
		}
		// The standby must flush exactly the dead master's orphans —
		// one per switch — and adopt every intent rule in place.
		if f.f.StaleFlushed != uint64(res.Switches) {
			t.Errorf("%s: stale flushed = %d, want %d", f.name, f.f.StaleFlushed, res.Switches)
		}
		if f.f.RulesRetained != uint64(res.Switches*res.Rules) {
			t.Errorf("%s: retained = %d, want %d", f.name, f.f.RulesRetained, res.Switches*res.Rules)
		}
		if f.f.TakeoverWallMS <= 0 {
			t.Errorf("%s: timings missing: %+v", f.name, f.f)
		}
	}
	// A crash resets TCP, so sessions may detect instantly without a
	// probe miss (DetectMS 0); a partition blackholes frames, so only
	// the echo prober can notice — detection must be probe-paced.
	if res.Partition.DetectMS <= 0 {
		t.Errorf("partition: detect = %vms, want > 0", res.Partition.DetectMS)
	}
	// Only the partition scenario heals and observes stand-downs.
	if res.Partition.Deposals != uint64(res.Switches) {
		t.Errorf("deposals = %d, want %d", res.Partition.Deposals, res.Switches)
	}
	if tbl.ID != "E14" || len(tbl.Rows) != 2 {
		t.Errorf("table: id=%s rows=%d", tbl.ID, len(tbl.Rows))
	}
}

// TestE15QuickOverlay pins DESIGN.md's "zero false audit repairs while
// conntrack churns": every datagram crosses NAT + tunnel and comes
// back, audits ran during the churn, none repaired a steering rule,
// and the dynamic state drained on its own.
func TestE15QuickOverlay(t *testing.T) {
	tbl, res, err := E15StatefulNF(E15Config{OverlayFlows: 8, OverlayRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlaySent != 16 || res.OverlayEchoed != res.OverlaySent || res.OverlayReplies != res.OverlaySent {
		t.Errorf("overlay: sent %d echoed %d replies %d, want 16 of each",
			res.OverlaySent, res.OverlayEchoed, res.OverlayReplies)
	}
	if res.AuditsRun == 0 {
		t.Error("no audit pass ran during the churn window")
	}
	if res.AuditFalseRepairs != 0 {
		t.Errorf("audit false repairs = %d, want 0", res.AuditFalseRepairs)
	}
	if res.DrainMS < 0 {
		t.Error("conntrack/NAT state never drained")
	}
	if tbl.ID != "E15" || len(tbl.Rows) != 1 {
		t.Errorf("table: id=%s rows=%d", tbl.ID, len(tbl.Rows))
	}
}

// TestRegistryIDs pins the registry's shape: ids are what a user types
// at `zbench -exp`, so they are unique and lower-case, every row can
// run, and every experiment is written up under a heading of its own in
// EXPERIMENTS.md.
func TestRegistryIDs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("id %q registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.ID != strings.ToLower(e.ID) || !strings.HasPrefix(e.ID, "e") {
			t.Errorf("id %q is not a lower-case e-number", e.ID)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: row incomplete", e.ID)
		}
		heading := regexp.MustCompile(`(?m)^#{2,3} E` + e.ID[1:] + ` — `)
		if !heading.Match(doc) {
			t.Errorf("%s has no heading in EXPERIMENTS.md", e.ID)
		}
		if tbl := newTable(e.ID); tbl.Title != e.Title || !strings.EqualFold(tbl.ID, e.ID) {
			t.Errorf("%s: newTable gave %q / %q", e.ID, tbl.ID, tbl.Title)
		}
	}
	if len(seen) != 13 {
		t.Errorf("registry holds %d experiments, want 13", len(seen))
	}
}

// TestRegistryQuickRuns smoke-runs, through the registry and with
// -quick parameters, the experiments no TestE* shape test covers, and
// checks the envelope each would write.
func TestRegistryQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments end to end")
	}
	want := map[string]bool{"e1a": true, "e11": true, "e15": true}
	dir := t.TempDir()
	for _, e := range Registry() {
		if !want[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Report(Params{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Table.Rows) == 0 {
				t.Fatal("table has no rows")
			}
			for i, row := range rep.Table.Rows {
				if len(row) != len(rep.Table.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(rep.Table.Header))
				}
			}
			if err := rep.WriteFile(dir); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+e.ID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				ID  string `json:"id"`
				Env *struct {
					NumCPU     int    `json:"num_cpu"`
					GOMAXPROCS int    `json:"gomaxprocs"`
					Go         string `json:"go"`
				} `json:"env"`
				Quick bool `json:"quick"`
				Table *struct {
					Header []string   `json:"header"`
					Rows   [][]string `json:"rows"`
				} `json:"table"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("report does not re-parse: %v", err)
			}
			if got.ID != e.ID || !got.Quick {
				t.Errorf("id = %q quick = %v", got.ID, got.Quick)
			}
			if got.Env == nil || got.Env.NumCPU < 1 || got.Env.GOMAXPROCS < 1 || got.Env.Go == "" {
				t.Errorf("env incomplete: %+v", got.Env)
			}
			if got.Table == nil || len(got.Table.Header) == 0 || len(got.Table.Rows) != len(rep.Table.Rows) {
				t.Errorf("table incomplete: %+v", got.Table)
			}
			// E9 onward carry their typed E*Result; E1–E6 have only the table.
			if typed := e.ID != "e1a"; typed != (string(got.Result) != "null") {
				t.Errorf("result = %s, want non-null: %v", got.Result, typed)
			}
		})
	}
}

// TestPrepareDirRejectsBeforeRunning: a -json path that cannot hold
// files must fail up front, not after minutes of measurement.
func TestPrepareDirRejectsBeforeRunning(t *testing.T) {
	dir := t.TempDir()
	if err := PrepareDir(filepath.Join(dir, "new", "nested")); err != nil {
		t.Errorf("creatable directory rejected: %v", err)
	}
	file := filepath.Join(dir, "out.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PrepareDir(file); err == nil {
		t.Error("a regular file was accepted as the -json directory")
	}
	if err := PrepareDir(filepath.Join(file, "sub")); err == nil {
		t.Error("a path under a regular file was accepted")
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "new", "nested")); len(left) != 0 {
		t.Errorf("probe left %d files behind", len(left))
	}
}
