// Package experiments implements the synthetic evaluation suite
// declared in DESIGN.md (E1-E6, E9-E11, E14, E15 and the E1a/E3a
// ablations): each experiment drives the platform with a generated
// workload and renders the table or data series the corresponding
// SIGCOMM'13-style evaluation would report. The experiments sit behind
// one registry with
// three front ends: cmd/zbench loops over it, the root bench_test.go
// wraps the same fixtures in testing.B harnesses, and this package's
// tests run it.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's rendered result. Inside a Report only the
// cells are serialized; the id and title sit on the envelope.
type Table struct {
	ID     string     `json:"-"`
	Title  string     `json:"-"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes"`
}

// newTable starts the table of registry row id ("e3a" renders as "E3a").
func newTable(id string, header ...string) *Table {
	for _, e := range Registry() {
		if e.ID == id {
			return &Table{ID: "E" + id[1:], Title: e.Title, Header: header}
		}
	}
	panic("experiments: no registry row for " + id)
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f renders a float compactly.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// ms renders a duration as fractional milliseconds, the unit of every
// E*Result latency field.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
