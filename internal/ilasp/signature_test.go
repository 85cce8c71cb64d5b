package ilasp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"agenp/internal/asp"
)

func TestSigWordsAllSet(t *testing.T) {
	s := newSig(200)
	for i := 10; i < 140; i++ {
		s.set(i)
	}
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{10, 140, true},
		{9, 140, false},
		{10, 141, false},
		{10, 11, true},
		{0, 0, true},    // empty range
		{64, 128, true}, // whole middle word
		{63, 65, true},  // straddles a word boundary
		{139, 140, true},
		{140, 141, false},
	}
	for _, c := range cases {
		if got := s.allSet(c.lo, c.hi); got != c.want {
			t.Errorf("allSet(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestSigWordsSubsetEmpty(t *testing.T) {
	a, b := newSig(130), newSig(130)
	if !a.empty() {
		t.Fatal("fresh sig not empty")
	}
	a.set(5)
	a.set(129)
	if a.empty() {
		t.Fatal("set sig reported empty")
	}
	if a.subsetOf(b) {
		t.Fatal("non-empty subset of empty")
	}
	a.orInto(b)
	b.set(64)
	if !a.subsetOf(b) {
		t.Fatal("subset after orInto failed")
	}
	if b.subsetOf(a) {
		t.Fatal("superset reported as subset")
	}
}

// sigTask builds a vectorizable task with an explicit candidate space:
// candidate heads (q/1) feed nothing, the background has one answer set
// per example, and the space contains an identical-signature duplicate
// pair (q(1) :- p(1) versus the costlier q(1) :- p(1), p(2)).
func sigTask(t testing.TB, weight int) *Task {
	t.Helper()
	bg, err := asp.Parse("p(1). p(2). p(3).")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := asp.Parse(`
		q(X) :- p(X).
		q(1) :- p(1).
		q(2) :- p(2).
		q(3) :- p(3).
		r(1) :- p(1).
		q(1) :- p(1), p(2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var space []Candidate
	for _, r := range rules.Rules {
		space = append(space, Candidate{Rule: r, Cost: len(r.Body) + 1})
	}
	q := func(v int) asp.Atom { return asp.NewAtom("q", asp.Integer{Value: v}) }
	r1 := asp.NewAtom("r", asp.Integer{Value: 1})
	return &Task{
		Background: bg,
		Space:      space,
		Examples: []Example{
			{ID: "e1", Positive: true, Inclusions: []asp.Atom{q(1), q(2)}, Exclusions: []asp.Atom{r1}},
			{ID: "e2", Positive: true, Inclusions: []asp.Atom{q(2)}},
			{ID: "e3", Positive: false, Inclusions: []asp.Atom{q(3)}, Weight: weight},
			{ID: "e4", Positive: true, Inclusions: []asp.Atom{q(1)}, Weight: weight},
		},
	}
}

// contextTask is sigTask with its facts moved into example contexts
// that differ, a background deriving b from a, and one more candidate,
// q(2) :- b. Ground body atoms then refute some (candidate, example)
// pairs, reading derived atoms (b) as well as context facts; sigTask's
// shared background refutes none.
func contextTask(t testing.TB, weight int) *Task {
	t.Helper()
	task := sigTask(t, weight)
	parse := func(src string) *asp.Program {
		p, err := asp.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	task.Background = parse("b :- a.")
	task.Space = append(task.Space, Candidate{Rule: parse("q(2) :- b.").Rules[0], Cost: 2})
	for i, ctx := range []string{"p(1). p(2). a.", "p(2).", "p(3).", "p(1)."} {
		task.Examples[i].Context = parse(ctx)
	}
	return task
}

// TestSignatureDifferential: the signature-served search returns the
// same hypothesis and coverage as the re-solve oracle path (dominance
// and subsumption pruning may legitimately evaluate fewer hypotheses, so
// Checks can only shrink), with a shared background and with example
// contexts whose ground body atoms refute some pairs.
func TestSignatureDifferential(t *testing.T) {
	tasks := []struct {
		prefix string
		task   func(testing.TB, int) *Task
	}{{"", sigTask}, {"example-contexts/", contextTask}}
	for _, tc := range tasks {
		for _, noise := range []bool{false, true} {
			t.Run(fmt.Sprintf("%snoise=%v", tc.prefix, noise), func(t *testing.T) {
				weight := 0
				if noise {
					weight = 5
				}
				// resolve hides the oracle's Decomposer methods, so the
				// search re-solves every check.
				run := func(resolve bool) (*Solution, error) {
					task := tc.task(t, weight)
					var o Oracle = &taskOracle{task: task, ps: prepare(task.Space, true)}
					if resolve {
						o = struct{ Oracle }{o}
					}
					return Search(o, ExampleWeights(task.Examples),
						LearnOptions{MaxRules: 3, Noise: noise})
				}

				want, wantErr := run(true)
				searches := statSigSearches.Value()
				got, gotErr := run(false)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("errors: oracle=%v signatures=%v", wantErr, gotErr)
				}
				if statSigSearches.Value() == searches {
					t.Fatal("task unexpectedly not vectorizable")
				}
				if !reflect.DeepEqual(want.Chosen, got.Chosen) {
					t.Errorf("Chosen: oracle %v, signatures %v", want.Chosen, got.Chosen)
				}
				if want.Covered != got.Covered {
					t.Errorf("Covered: oracle %d, signatures %d", want.Covered, got.Covered)
				}
				if got.Checks > want.Checks {
					t.Errorf("signature path issued %d checks, more than the oracle path's %d", got.Checks, want.Checks)
				}
			})
		}
	}
}

// TestGuardsRefutePairs: on contextTask, guard atoms skip some
// (candidate, example) evaluations, and the signatures equal those of a
// build that evaluates every pair: a skipped pair is one EvalPrepared
// would have found to derive nothing.
func TestGuardsRefutePairs(t *testing.T) {
	task := contextTask(t, 0)
	build := func(guarded bool) (*coverVectors, int64) {
		ps := prepare(task.Space, guarded)
		before := statSigEvals.Value()
		v, err := vectorize(&taskOracle{task: task, ps: ps}, ps, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return v, statSigEvals.Value() - before
	}
	guarded, ran := build(true)
	plain, all := build(false)
	if !reflect.DeepEqual(guarded, plain) {
		t.Fatal("guards changed the signatures")
	}
	if pairs := int64(len(task.Space) * len(task.Examples)); all != pairs || ran >= all {
		t.Fatalf("evaluations: %d with guards, %d without, over %d pairs; want fewer with guards, all without", ran, all, pairs)
	}
}

// TestSignatureBudgetDifferential: MaxChecks must exhaust at the same
// logical check on both paths.
func TestSignatureBudgetDifferential(t *testing.T) {
	for _, budget := range []int{1, 3, 7} {
		opts := LearnOptions{MaxRules: 3, MaxChecks: budget}

		task := sigTask(t, 0)
		ref := struct{ Oracle }{&taskOracle{task: task, ps: prepare(task.Space, true)}}
		_, wantErr := Search(ref, ExampleWeights(task.Examples), opts)

		task2 := sigTask(t, 0)
		sig := &taskOracle{task: task2, ps: prepare(task2.Space, true)}
		_, gotErr := Search(sig, ExampleWeights(task2.Examples), opts)

		if !errors.Is(wantErr, ErrCheckBudget) || !errors.Is(gotErr, ErrCheckBudget) {
			t.Fatalf("budget %d: oracle err %v, signature err %v; want ErrCheckBudget on both", budget, wantErr, gotErr)
		}
	}
}

// TestSignatureClasses: of two identical-signature candidates, the
// costlier duplicate is collapsed away and never chosen.
func TestSignatureClasses(t *testing.T) {
	task := sigTask(t, 0)
	o := &taskOracle{task: task, ps: prepare(task.Space, true)}
	sol, err := Search(o, ExampleWeights(task.Examples), LearnOptions{MaxRules: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 1 is q(1) :- p(1); candidate 5 is the same-signature
	// q(1) :- p(1), p(2) at higher cost.
	foundDup := false
	for _, ci := range sol.Chosen {
		if ci == 5 {
			t.Error("costlier duplicate (index 5) chosen over its representative")
		}
		if ci == 1 {
			foundDup = true
		}
	}
	if !foundDup {
		t.Fatalf("expected candidate 1 in solution, got %v", sol.Chosen)
	}
}

// TestVectorizeFallbacks: recursive spaces, choice candidates, and
// multi-model backgrounds must all return nil (full oracle fallback).
func TestVectorizeFallbacks(t *testing.T) {
	bg, err := asp.Parse("p(1).")
	if err != nil {
		t.Fatal(err)
	}
	recursive, err := asp.Parse("q(X) :- p(X).\np(X) :- q(X).")
	if err != nil {
		t.Fatal(err)
	}
	var space []Candidate
	for _, r := range recursive.Rules {
		space = append(space, Candidate{Rule: r, Cost: 1})
	}
	task := &Task{Background: bg, Space: space,
		Examples: []Example{{ID: "e", Positive: true}}}
	ps := prepare(space, true)
	if v, _ := vectorize(&taskOracle{task: task, ps: ps}, ps, 1, false); v != nil {
		t.Error("recursive space vectorized")
	}

	multi, err := asp.Parse("p(1).\n{a}.")
	if err != nil {
		t.Fatal(err)
	}
	qRule, err := asp.Parse("q(X) :- p(X).")
	if err != nil {
		t.Fatal(err)
	}
	space2 := []Candidate{{Rule: qRule.Rules[0], Cost: 1}}
	task2 := &Task{Background: multi, Space: space2,
		Examples: []Example{{ID: "e", Positive: true}}}
	ps2 := prepare(space2, true)
	if v, _ := vectorize(&taskOracle{task: task2, ps: ps2}, ps2, 1, false); v != nil {
		t.Error("multi-model background vectorized")
	}
}

// TestLearnIndependentMatchesSearch: the bitset set-cover and the
// general search agree on the independent task (both optimal).
// LearnIndependent requires positive examples, so the negative example
// of sigTask is re-expressed as a positive one with an exclusion.
func TestLearnIndependentMatchesSearch(t *testing.T) {
	for _, noise := range []bool{false, true} {
		weight := 0
		if noise {
			weight = 5
		}
		task := sigTask(t, weight)
		q3 := asp.NewAtom("q", asp.Integer{Value: 3})
		task.Examples[2] = Example{ID: "e3", Positive: true, Exclusions: []asp.Atom{q3}, Weight: weight}
		opts := LearnOptions{MaxRules: 3, Noise: noise}
		fast, err := task.LearnIndependent(opts)
		if err != nil {
			t.Fatalf("noise=%v: LearnIndependent: %v", noise, err)
		}
		slow, err := task.Learn(opts)
		if err != nil {
			t.Fatalf("noise=%v: Learn: %v", noise, err)
		}
		if fast.Cost != slow.Cost || fast.Covered != slow.Covered {
			t.Errorf("noise=%v: LearnIndependent (cost %d, covered %d) != Learn (cost %d, covered %d)",
				noise, fast.Cost, fast.Covered, slow.Cost, slow.Covered)
		}
	}
}
