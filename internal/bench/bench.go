// Package bench holds the workload generators and experiment runners
// behind the repository's evaluation (experiments E1–E13 in DESIGN.md /
// EXPERIMENTS.md). The same runners back the root-level testing.B
// benchmarks and the cmd/samoa-bench harness that prints the paper-style
// tables.
package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// Variant is a named controller configuration. Every variant runs the
// same specs: each carries M, visit bounds and the route, and the
// controller reads the part it implements.
type Variant struct {
	Name string
	New  func() core.Controller
}

// Variants returns every controller variant in presentation order:
// baselines first, then the paper's algorithms, then the §7 extensions.
func Variants() []Variant {
	return []Variant{
		{"none", func() core.Controller { return cc.NewNone() }},
		{"serial", func() core.Controller { return cc.NewSerial() }},
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() }},
		{"wait-die", func() core.Controller { return cc.NewWaitDie() }},
	}
}

// Isolating returns the variants that enforce the isolation property.
func Isolating() []Variant {
	all := Variants()
	out := make([]Variant, 0, len(all))
	for _, v := range all {
		if v.Name != "none" {
			out = append(out, v)
		}
	}
	return out
}

// PaperVariants returns the baselines plus the three paper algorithms —
// the set most experiments compare.
func PaperVariants() []Variant {
	all := Variants()
	out := make([]Variant, 0, len(all))
	for _, v := range all {
		switch v.Name {
		case "none", "serial", "vca-basic", "vca-bound", "vca-route":
			out = append(out, v)
		}
	}
	return out
}

// VariantByName finds a variant.
func VariantByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Table is an experiment result rendered like the paper would report it.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// JSON renders the table as row-key → metric → value, the
// machine-readable shape behind samoa-bench -json: the first column is
// the row key (usually the controller), the remaining header cells name
// the metrics. Numeric cells become float64, duration cells become their
// seconds as float64, and anything else stays a string, so downstream
// tooling can diff perf trajectories without re-parsing table text.
func (t *Table) JSON() map[string]map[string]any {
	out := make(map[string]map[string]any, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		m := make(map[string]any, len(row)-1)
		for i := 1; i < len(row) && i < len(t.Header); i++ {
			m[t.Header[i]] = jsonCell(row[i])
		}
		out[row[0]] = m
	}
	return out
}

// jsonCell converts one rendered cell to its natural JSON value.
func jsonCell(s string) any {
	v := strings.TrimSpace(s)
	if f, err := strconv.ParseFloat(strings.TrimSuffix(v, "%"), 64); err == nil {
		return f
	}
	if d, err := time.ParseDuration(v); err == nil {
		return d.Seconds()
	}
	return s
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  "+strings.Join(t.Header, "\t"))
	fmt.Fprintln(tw, "  "+strings.Repeat("—", len(strings.Join(t.Header, "  "))))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}
