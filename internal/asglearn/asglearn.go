// Package asglearn implements the context-dependent ASG learning task of
// the paper's Definition 3: given an initial answer set grammar G, a
// hypothesis space S_M of (rule, production) pairs, and examples
// ⟨string, context⟩ labelled positive or negative, find a minimal
// hypothesis H ⊆ S_M such that every positive ⟨s, C⟩ has s ∈ L(G(C):H)
// and every negative ⟨s, C⟩ has s ∉ L(G(C):H).
//
// Following Section II.B, the learning problem is transformed into a
// task solved by the ILASP engine: the optimal subset search of package
// ilasp runs over S_M with ASG membership as the coverage oracle.
package asglearn

import (
	"fmt"
	"strings"

	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/cfg"
	"agenp/internal/ilasp"
)

// Example is a context-dependent string example ⟨s, C⟩ (Definition 3).
type Example struct {
	// ID labels the example in diagnostics.
	ID string
	// Tokens is the policy string s.
	Tokens []string
	// Context is the ASP context program C (may be nil).
	Context *asp.Program
	// Positive marks whether s must be in L(G(C):H) (true) or must not
	// (false).
	Positive bool
	// Weight is the noise penalty; 0 marks a hard example.
	Weight int
}

func (e Example) String() string {
	pol := "#neg"
	if e.Positive {
		pol = "#pos"
	}
	return fmt.Sprintf("%s(%s) %q", pol, e.ID, strings.Join(e.Tokens, " "))
}

// Task is a context-dependent ASG learning task ⟨G, S_M, E+, E−⟩.
type Task struct {
	// Initial is the initial grammar G.
	Initial *asg.Grammar
	// Space is the hypothesis space S_M.
	Space []asg.HypothesisRule
	// Examples are E+ and E− merged (polarity per example).
	Examples []Example
}

// Covers reports whether hypothesis H covers the example:
// s ∈ L(G(C):H) for positive examples, s ∉ L(G(C):H) for negative ones.
func (t *Task) Covers(h []asg.HypothesisRule, e Example) (bool, error) {
	g, err := t.Initial.WithHypothesis(h)
	if err != nil {
		return false, err
	}
	ok, err := g.WithContext(e.Context).Accepts(e.Tokens)
	if err != nil {
		return false, fmt.Errorf("asglearn: example %s: %w", e.ID, err)
	}
	if e.Positive {
		return ok, nil
	}
	return !ok, nil
}

// Result is a learned generative policy model.
type Result struct {
	// Hypothesis is the learned (rule, production) set.
	Hypothesis []asg.HypothesisRule
	// Grammar is the learned ASG (G : H).
	Grammar *asg.Grammar
	// Cost is the hypothesis cost; Covered/Total count examples; Checks
	// counts the membership verdicts the search replayed, which come from
	// coverage signatures rather than parse-and-solve calls whenever the
	// task decomposes (see asgOracle).
	Cost, Covered, Total, Checks int
}

func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost %d, covered %d/%d\n", r.Cost, r.Covered, r.Total)
	for _, h := range r.Hypothesis {
		sb.WriteString(h.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Learn searches S_M for an optimal hypothesis using the shared ILASP
// search engine.
func (t *Task) Learn(opts ilasp.LearnOptions) (*Result, error) {
	oracle := &asgOracle{task: t}
	weights := make([]int, len(t.Examples))
	for i, e := range t.Examples {
		weights[i] = e.Weight
	}
	sol, err := ilasp.Search(oracle, weights, opts)
	if err != nil {
		return nil, err
	}
	hyp := make([]asg.HypothesisRule, len(sol.Chosen))
	cost := 0
	for i, ci := range sol.Chosen {
		hyp[i] = t.Space[ci]
		cost += t.Space[ci].Cost()
	}
	learned, err := t.Initial.WithHypothesis(hyp)
	if err != nil {
		return nil, err
	}
	return &Result{
		Hypothesis: hyp,
		Grammar:    learned,
		Cost:       cost,
		Covered:    sol.Covered,
		Total:      len(t.Examples),
		Checks:     sol.Checks,
	}, nil
}

// asgOracle adapts the task to the ILASP search engine. Covers builds a
// fresh grammar per call. There is no verdict memo: a search checks each
// hypothesis at most once, and every Learn builds a fresh oracle.
//
// It is also the task's Decomposer. Constraints only remove answer sets,
// so when every candidate is a constraint, example i has one parse tree
// T, and the base program (G(C))[T] has one answer set M, H accepts the
// string iff no chosen constraint, localized at the nodes of T that
// apply its production, fires in M; with no answer set, or no parse
// tree, no H accepts it. The search then answers every
// membership check from signatures built with one parse and one solve
// per example (vectorize declines bases with several answer sets).
// Candidates are localized through each example's G(C), so they read a
// shared context where its annotations do; a candidate that defines a
// context predicate or reads one through @i would make G(C):H copy the
// context instead, and the task does not decompose.
type asgOracle struct {
	task  *Task
	cands []ilasp.Candidate

	// trees[i] is example i's one parse tree, nil when the string does
	// not parse, and grammars[i] its G(C). Set by Decompose.
	trees    []*cfg.Tree
	grammars []*asg.Grammar
}

var _ ilasp.Oracle = (*asgOracle)(nil)
var _ ilasp.Decomposer = (*asgOracle)(nil)

func (o *asgOracle) Candidates() []ilasp.Candidate {
	if o.cands == nil {
		o.cands = make([]ilasp.Candidate, len(o.task.Space))
		for i, h := range o.task.Space {
			o.cands[i] = ilasp.Candidate{Rule: h.Rule, Cost: h.Cost()}
		}
	}
	return o.cands
}

func (o *asgOracle) Covers(chosen []int, exampleIdx int) (bool, error) {
	h := make([]asg.HypothesisRule, len(chosen))
	for i, ci := range chosen {
		h[i] = o.task.Space[ci]
	}
	return o.task.Covers(h, o.task.Examples[exampleIdx])
}

// Decompose parses every example once; its base program is (G(C))[T]
// for its parse tree T. It declines — and the search re-solves per
// hypothesis, with Covers' lazy errors — when a candidate is headed or a
// choice rule, when WithHypothesis rejects a candidate, when an example
// has more than one parse tree, or when a candidate does not localize in
// an example's G(C) (asg.Grammar.Localizes).
func (o *asgOracle) Decompose() ([]ilasp.Example, []*asp.Program, error) {
	t := o.task
	for _, h := range t.Space {
		if h.Rule.Head != nil || h.Rule.IsChoice() {
			return nil, nil, fmt.Errorf("asglearn: candidate %s is not a constraint", h)
		}
	}
	if _, err := t.Initial.WithHypothesis(t.Space); err != nil {
		return nil, nil, err
	}
	examples := make([]ilasp.Example, len(t.Examples))
	bases := make([]*asp.Program, len(t.Examples))
	o.trees = make([]*cfg.Tree, len(t.Examples))
	o.grammars = make([]*asg.Grammar, len(t.Examples))
	for i, e := range t.Examples {
		examples[i] = ilasp.Example{ID: e.ID, Positive: e.Positive}
		trees := t.Initial.CFG.ParseAll(e.Tokens, cfg.ParseOptions{})
		if len(trees) > 1 {
			return nil, nil, fmt.Errorf("asglearn: example %s has %d parse trees", e.ID, len(trees))
		}
		if len(trees) == 0 {
			continue // no hypothesis accepts the string
		}
		gc := t.Initial.WithContext(e.Context)
		for _, h := range t.Space {
			if !gc.Localizes(h.Rule) {
				return nil, nil, fmt.Errorf("asglearn: candidate %s defines or reads through @i a context predicate of example %s", h, e.ID)
			}
		}
		base, err := gc.TreeProgram(trees[0])
		if err != nil {
			return nil, nil, err
		}
		o.trees[i], o.grammars[i], bases[i] = trees[0], gc, base
	}
	return examples, bases, nil
}

// Instances localizes the candidate at the nodes of the example's parse
// tree that apply its production, as the example's G(C) localizes its
// own annotations.
func (o *asgOracle) Instances(c, i int) []asp.Rule {
	h := o.task.Space[c]
	return o.grammars[i].Localize(h.Rule, h.ProdID, o.trees[i])
}

// ProductionBias pairs an ILASP language bias with the production(s) its
// rules may be attached to, for building hypothesis spaces.
type ProductionBias struct {
	// ProdIDs lists the productions each generated rule may annotate.
	ProdIDs []int
	// Bias defines the rule shapes. Mode atoms may reference child
	// annotations via predicates built with asg.EncodeAnnotated.
	Bias ilasp.Bias
}

// BuildSpace expands production biases into a hypothesis space S_M.
func BuildSpace(g *asg.Grammar, biases []ProductionBias) ([]asg.HypothesisRule, error) {
	var out []asg.HypothesisRule
	for _, pb := range biases {
		cands, err := pb.Bias.Space()
		if err != nil {
			return nil, err
		}
		for _, id := range pb.ProdIDs {
			if id < 0 || id >= len(g.CFG.Productions) {
				return nil, fmt.Errorf("asglearn: bias references unknown production %d", id)
			}
			for _, c := range cands {
				out = append(out, asg.HypothesisRule{Rule: c.Rule, ProdID: id})
			}
		}
	}
	return out, nil
}

// ParseHypothesisRule parses a rule in ASG annotation syntax (atoms may
// carry @k annotations) targeted at a production, for hand-built spaces.
func ParseHypothesisRule(src string, prodID int) (asg.HypothesisRule, error) {
	prog, err := asp.ParseAnnotated(src, asg.AnnotationHook)
	if err != nil {
		return asg.HypothesisRule{}, err
	}
	if len(prog.Rules) != 1 {
		return asg.HypothesisRule{}, fmt.Errorf("asglearn: expected one rule, got %d", len(prog.Rules))
	}
	return asg.HypothesisRule{Rule: prog.Rules[0], ProdID: prodID}, nil
}

// MustParseHypothesisRule is ParseHypothesisRule panicking on error, for
// tests and literals.
func MustParseHypothesisRule(src string, prodID int) asg.HypothesisRule {
	h, err := ParseHypothesisRule(src, prodID)
	if err != nil {
		panic(err)
	}
	return h
}
