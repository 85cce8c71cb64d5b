// Package experiments implements the reproduction harness: one runner
// per experiment of DESIGN.md (E1–E13), each regenerating a table or
// figure-equivalent of the paper. The cmd/experiments binary and the
// root-level benchmarks drive these runners; EXPERIMENTS.md records the
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Table is one regenerated result: the rows the paper's figure/table
// reports (or the closest structured equivalent for prose claims).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks datasets and sweeps for fast CI/bench runs.
	Quick bool
	// Seed drives every generator.
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20260704
	}
	return o.Seed
}

// Runner executes one experiment.
type Runner func(Options) (*Table, error)

// registry returns the experiment table. (A function rather than a
// package variable: the runners call Title, which would otherwise form
// an initialization cycle.)
func registry() map[string]struct {
	title  string
	runner Runner
} {
	return map[string]struct {
		title  string
		runner Runner
	}{
		"E1":  {title: "Fig.1 workflow: initial ASG + examples -> ILASP -> learned ASG", runner: RunE1},
		"E2":  {title: "Fig.2 architecture: PReP/PDP/PEP/PAdaP autonomic loop", runner: RunE2},
		"E3":  {title: "Fig.3a: correctly learned XACML policies from clean examples", runner: RunE3},
		"E4":  {title: "Fig.3b-1: overfitting without background knowledge", runner: RunE4},
		"E5":  {title: "Fig.3b-2: unsafe generalization without target restrictions", runner: RunE5},
		"E6":  {title: "Fig.3b-3: noisy examples and low-quality filtering", runner: RunE6},
		"E7":  {title: "IV.A claim: symbolic vs shallow-ML learning curves (CAV)", runner: RunE7},
		"E8":  {title: "III.B claim: learner/solver scalability", runner: RunE8},
		"E9":  {title: "V.A: policy quality assessment metrics", runner: RunE9},
		"E10": {title: "V.B: decision traces and counterfactual explanations", runner: RunE10},
		"E11": {title: "IV.D/IV.E: data sharing and federated-learning policies", runner: RunE11},
		"E12": {title: "IV.B: resupply accuracy vs completed missions", runner: RunE12},
		"E13": {title: "III.A cost model: PDP throughput, interpreter vs compiled engine", runner: RunE13},
	}
}

// IDs lists the experiment ids in order.
func IDs() []string {
	reg := registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// Title returns an experiment's title.
func Title(id string) string { return registry()[id].title }

// Run executes one experiment by id.
func Run(id string, opts Options) (*Table, error) {
	e, ok := registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e.runner(opts)
}

// RunAll executes every experiment in order.
func RunAll(opts Options) ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		t, err := Run(id, opts)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
