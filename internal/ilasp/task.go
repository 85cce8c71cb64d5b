package ilasp

import (
	"fmt"
	"strings"

	"agenp/internal/asp"
)

// Example is a context-dependent partial-interpretation example (a CDPI
// in ILASP terms). A positive example is covered when some answer set of
// B ∪ H ∪ Context includes every Inclusion and no Exclusion (brave
// entailment); a negative example is covered when no such answer set
// exists.
type Example struct {
	// ID labels the example in diagnostics.
	ID string
	// Positive marks the example polarity.
	Positive bool
	// Inclusions must all hold in a witnessing answer set.
	Inclusions []asp.Atom
	// Exclusions must all be absent from the witnessing answer set.
	Exclusions []asp.Atom
	// Context is example-specific extra knowledge (may be nil).
	Context *asp.Program
	// Weight is the penalty for leaving the example uncovered in
	// noise-tolerant learning. Weight 0 marks a hard example that every
	// solution must cover.
	Weight int
}

func (e Example) String() string {
	var sb strings.Builder
	if e.Positive {
		sb.WriteString("#pos")
	} else {
		sb.WriteString("#neg")
	}
	if e.ID != "" {
		fmt.Fprintf(&sb, "(%s)", e.ID)
	}
	sb.WriteString(" {")
	for i, a := range e.Inclusions {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString("} {")
	for i, a := range e.Exclusions {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString("}")
	if e.Weight > 0 {
		fmt.Fprintf(&sb, "@%d", e.Weight)
	}
	return sb.String()
}

// Pos builds a positive hard example.
func PosExample(id string, incl, excl []asp.Atom, ctx *asp.Program) Example {
	return Example{ID: id, Positive: true, Inclusions: incl, Exclusions: excl, Context: ctx}
}

// NegExample builds a negative hard example.
func NegExample(id string, incl, excl []asp.Atom, ctx *asp.Program) Example {
	return Example{ID: id, Positive: false, Inclusions: incl, Exclusions: excl, Context: ctx}
}

// Task is an ILASP learning task: background knowledge, a hypothesis
// space (from a Bias or given explicitly), and examples.
type Task struct {
	// Background is the fixed program B.
	Background *asp.Program
	// Bias defines the hypothesis space when Space is nil.
	Bias Bias
	// Space overrides the bias with an explicit candidate list.
	Space []Candidate
	// Examples to cover.
	Examples []Example
}

// space returns the task's hypothesis space prepared for signature
// builds: an explicit Space is prepared per call, a bias's space is
// memoized by bias content (biasSpace) and shared read-only.
func (t *Task) space() (*preparedSpace, error) {
	if t.Space != nil {
		return prepare(t.Space, true), nil
	}
	return biasSpace(t.Bias)
}

// Covers reports whether hypothesis H (rules) covers the example under
// the task's background: brave entailment of the partial interpretation
// for positive examples, absence of a witnessing answer set for negative
// ones.
func (t *Task) Covers(h []asp.Rule, e Example) (bool, error) {
	prog := asp.NewProgram()
	if t.Background != nil {
		prog.Extend(t.Background)
	}
	prog.Add(h...)
	if e.Context != nil {
		prog.Extend(e.Context)
	}
	// Force the partial interpretation: a witnessing answer set must
	// contain all inclusions and no exclusions.
	for _, a := range e.Inclusions {
		prog.Add(asp.NewConstraint(asp.Neg(a)))
	}
	for _, a := range e.Exclusions {
		prog.Add(asp.NewConstraint(asp.PosLit(a)))
	}
	witness, err := asp.HasAnswerSet(prog)
	if err != nil {
		return false, fmt.Errorf("ilasp: checking example %s: %w", e.ID, err)
	}
	if e.Positive {
		return witness, nil
	}
	return !witness, nil
}

// Result is a learned hypothesis.
type Result struct {
	// Hypothesis is the learned rule set (nil-able: the empty hypothesis
	// is a valid solution when the background already covers everything).
	Hypothesis []asp.Rule
	// Cost is the total rule cost of the hypothesis.
	Cost int
	// Covered counts covered examples; Total counts all examples.
	Covered, Total int
	// Checks counts coverage checks performed during search (stats for
	// the paper's scalability discussion). LearnIndependent counts its
	// one-step candidate evaluations instead: every candidate against
	// every feasible example's base model.
	Checks int
}

// HypothesisProgram returns the hypothesis as a program.
func (r *Result) HypothesisProgram() *asp.Program {
	return asp.NewProgram(r.Hypothesis...)
}

func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost %d, covered %d/%d\n", r.Cost, r.Covered, r.Total)
	for _, rule := range r.Hypothesis {
		sb.WriteString(rule.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LearnOptions configures hypothesis search.
type LearnOptions struct {
	// MaxRules bounds hypothesis cardinality (default 3).
	MaxRules int
	// MaxCost bounds total hypothesis cost (default: unlimited within
	// MaxRules).
	MaxCost int
	// Noise enables noise-tolerant search: uncovered soft examples incur
	// their Weight as penalty; the returned hypothesis minimises
	// cost + penalty. Without Noise, every example is hard.
	Noise bool
	// MaxChecks aborts after this many coverage checks (0 = unlimited);
	// guards the paper's real-time requirement. LearnIndependent ignores
	// it: its searches issue no coverage checks.
	MaxChecks int
}

// ErrNoSolution is returned when no hypothesis within the bounds covers
// the examples.
var ErrNoSolution = fmt.Errorf("ilasp: no hypothesis within bounds covers the examples")

// ErrCheckBudget is returned when MaxChecks is exhausted.
var ErrCheckBudget = fmt.Errorf("ilasp: coverage-check budget exhausted")

// Learn searches the hypothesis space for an optimal hypothesis.
//
// Exact (default): returns a minimal-cost hypothesis covering every
// example, searching subsets in increasing total cost (ILASP's
// optimality). Noise-tolerant (opts.Noise): returns the hypothesis
// minimising cost plus the weights of uncovered soft examples; hard
// (zero-weight) examples must still be covered.
func (t *Task) Learn(opts LearnOptions) (*Result, error) {
	ps, err := t.space()
	if err != nil {
		return nil, err
	}
	sol, err := Search(&taskOracle{task: t, ps: ps}, ExampleWeights(t.Examples), opts)
	if err != nil {
		return nil, err
	}
	rules := make([]asp.Rule, len(sol.Chosen))
	cost := 0
	for i, ci := range sol.Chosen {
		rules[i] = ownRule(ps.cands[ci].Rule)
		cost += ps.cands[ci].Cost
	}
	return &Result{
		Hypothesis: rules,
		Cost:       cost,
		Covered:    sol.Covered,
		Total:      len(t.Examples),
		Checks:     sol.Checks,
	}, nil
}

// taskOracle adapts a Task to the generic search engine. Covers is
// Task.Covers on the chosen candidates' rules: it grounds and solves
// background ∪ H ∪ context afresh. There is no verdict memo: a search
// checks each hypothesis at most once, and every Learn builds a fresh
// oracle.
//
// It is also the task's Decomposer: when the task is independent (see
// vectorize), the search reads per-candidate coverage signatures and
// never calls Covers at all. Each candidate is its own instance in every
// example, so its space is prepared with guards (see preparedOf).
type taskOracle struct {
	task *Task
	ps   *preparedSpace
}

var _ Oracle = (*taskOracle)(nil)
var _ Decomposer = (*taskOracle)(nil)

func (o *taskOracle) Candidates() []Candidate { return o.ps.cands }

func (o *taskOracle) Covers(chosen []int, exampleIdx int) (bool, error) {
	h := make([]asp.Rule, len(chosen))
	for i, ci := range chosen {
		h[i] = o.ps.rules[ci]
	}
	return o.task.Covers(h, o.task.Examples[exampleIdx])
}

// Decompose admits independent tasks (checkIndependence); an example's
// base program is background ∪ context.
func (o *taskOracle) Decompose() ([]Example, []*asp.Program, error) {
	if err := checkIndependence(o.task, o.ps); err != nil {
		return nil, nil, err
	}
	bases := make([]*asp.Program, len(o.task.Examples))
	for i, e := range o.task.Examples {
		bases[i] = asp.NewProgram()
		if o.task.Background != nil {
			bases[i].Extend(o.task.Background)
		}
		if e.Context != nil {
			bases[i].Extend(e.Context)
		}
	}
	return o.task.Examples, bases, nil
}

// Instances is the candidate itself, whatever the example.
func (o *taskOracle) Instances(c, _ int) []asp.Rule { return o.ps.rules[c : c+1] }
