package asglearn

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"agenp/internal/asg"
	"agenp/internal/ilasp"
	"agenp/internal/obs"
)

// The ASG learner is checked against the definition of an optimal
// hypothesis (Definition 3): enumerate every subset of at most MaxRules
// candidates, score each with the literal Task.Covers (parse, build
// G(C):H's tree programs, ground and solve), and compare the learner's
// answer with the best score.

// defGrammar is ambiguous on purpose: "a b" parses as one two-token item
// or as two items. Items pass v/1 and w up to the root; the root rejects
// a two-token first item in a context holding e.
const defGrammar = `
start -> item rest {
    v(X) :- v(X)@1.
    v(X) :- v(X)@2.
    w :- w@2.
    :- v(3)@1, e.
}
rest -> item { v(X) :- v(X)@1. w :- w@1. }
rest -> epsilon
item -> "a" { v(1). }
item -> "b" { v(2). w. }
item -> "a" "b" { v(3). }
`

// defCandidates are the (rule, production) pairs a fuzzed space draws
// from: constraints with negation, comparisons and @i atoms, then a
// headed rule, a choice rule, an unsafe constraint, an out-of-range @3
// and an unknown production, each of which sends the task down the
// re-solve path.
var defCandidates = []struct {
	src  string
	prod int
}{
	{":- v(1)@1.", 0},
	{":- v(X)@1, X > 1.", 0},
	{":- w@2, c.", 0},
	{":- v(X), X > 1, not c.", 0},
	{":- v(2), not d.", 0},
	{":- v(X)@1, v(Y)@2, X < Y.", 0},
	{":- w, c.", 4},
	{":- c, not d.", 3},
	{":- v(3), d.", 5},
	{":- w@1.", 1},
	{":- d.", 2},
	{"v(9) :- c.", 3},
	{"{v(7)} :- d.", 0},
	{":- v(X), X > Y.", 0},
	{":- v(1)@3.", 0},
	{":- c.", 99},
}

var (
	// defStrings: one parse tree each, except the ambiguous "a b" and the
	// unparseable "b b b".
	defStrings = []string{"a", "b", "a b", "b a", "b b", "a a b", "a b b", "b b b"}
	// defFacts are the atoms an example context may assert; the context
	// bits above them add a choice (several answer sets) and a
	// constraint that leaves contexts holding c and e without one.
	defFacts = []string{"c", "d", "e"}
)

// decodeASGTask decodes a small ASG learning task: at most 6 candidates
// and at most 4 examples of mixed polarity with weights 0–3. Missing
// bytes read as zero. Flag bits 4 and 5 are unused; existing corpus
// entries that set them still decode.
func decodeASGTask(t *testing.T, data []byte) (*Task, ilasp.LearnOptions) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	opts := ilasp.LearnOptions{
		Noise:    flags&1 != 0,
		MaxRules: 1 + (flags>>1)%3,
	}
	task := &Task{Initial: asg.MustParseASG(defGrammar)}
	for n := next() % 7; n > 0; n-- {
		c := defCandidates[next()%len(defCandidates)]
		task.Space = append(task.Space, MustParseHypothesisRule(c.src, c.prod))
	}
	for n := next() % 5; n > 0; n-- {
		head, ctxBits := next(), next()
		var src strings.Builder
		for i, f := range defFacts {
			if ctxBits&(1<<i) != 0 {
				src.WriteString(f + ". ")
			}
		}
		if ctxBits&8 != 0 {
			src.WriteString("{d}. ")
		}
		if ctxBits&16 != 0 {
			src.WriteString(":- c, e. ")
		}
		task.Examples = append(task.Examples, Example{
			ID:       fmt.Sprintf("e%d", len(task.Examples)),
			Tokens:   toks(defStrings[(head>>3)%len(defStrings)]),
			Context:  ctx(t, src.String()),
			Positive: head&1 != 0,
			Weight:   (head >> 1) % 4,
		})
	}
	return task, opts
}

// defScore is the definitional verdict on one candidate subset.
type defScore struct {
	covered  int
	feasible bool // every hard example covered
	obj      int  // cost plus the weights of uncovered soft examples
}

// defTable is the brute-force reference for one task: the best objective
// over the subsets of at most MaxRules candidates that Task.Covers
// scores without error (ok false when none is feasible), every such
// subset's score keyed by its rules and cost, and the error texts of the
// others.
type defTable struct {
	best   int
	ok     bool
	scores map[string]defScore
	errs   map[string]bool
}

func defKey(h []asg.HypothesisRule, cost int) string {
	s := make([]string, len(h))
	for i, r := range h {
		s[i] = r.String()
	}
	sort.Strings(s)
	return fmt.Sprintf("%s#%d", strings.Join(s, " "), cost)
}

func bruteForceLearn(t *testing.T, task *Task, opts ilasp.LearnOptions) *defTable {
	t.Helper()
	tab := &defTable{scores: map[string]defScore{}, errs: map[string]bool{}}
	var chosen []asg.HypothesisRule
	var walk func(from int)
	walk = func(from int) {
		cost := 0
		for _, h := range chosen {
			cost += h.Cost()
		}
		sc := defScore{feasible: true, obj: cost}
		scored := true
		for _, e := range task.Examples {
			ok, err := task.Covers(chosen, e)
			if err != nil {
				tab.errs[err.Error()] = true
				scored = false
				break
			}
			switch {
			case ok:
				sc.covered++
			case !opts.Noise || e.Weight <= 0:
				sc.feasible = false
			default:
				sc.obj += e.Weight
			}
		}
		if scored {
			tab.scores[defKey(chosen, cost)] = sc
			if sc.feasible && (!tab.ok || sc.obj < tab.best) {
				tab.best, tab.ok = sc.obj, true
			}
		}
		if len(chosen) == opts.MaxRules {
			return
		}
		for ci := from; ci < len(task.Space); ci++ {
			chosen = append(chosen, task.Space[ci])
			walk(ci + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	walk(0)
	return tab
}

// check reports why a learner's answer is not optimal: ErrNoSolution must
// mean no subset is feasible, any other error must be one Task.Covers
// reports on some subset, and otherwise the hypothesis and cost must be a
// real subset of at most MaxRules candidates, Covered and Total must
// match Task.Covers, and the objective must be the optimum.
func (tab *defTable) check(task *Task, opts ilasp.LearnOptions, res *Result, err error) error {
	if errors.Is(err, ilasp.ErrNoSolution) {
		if tab.ok {
			return fmt.Errorf("no solution reported, but the optimum objective is %d", tab.best)
		}
		return nil
	}
	if err != nil {
		if !tab.errs[err.Error()] {
			return fmt.Errorf("error %q is not one Task.Covers reports", err)
		}
		return nil
	}
	sc, real := tab.scores[defKey(res.Hypothesis, res.Cost)]
	switch {
	case !real || len(res.Hypothesis) > opts.MaxRules:
		return fmt.Errorf("%v at cost %d is no subset of at most %d candidates", res.Hypothesis, res.Cost, opts.MaxRules)
	case res.Covered != sc.covered || res.Total != len(task.Examples):
		return fmt.Errorf("covered %d/%d, Task.Covers says %d/%d", res.Covered, res.Total, sc.covered, len(task.Examples))
	case !sc.feasible:
		return fmt.Errorf("%v leaves a hard example uncovered", res.Hypothesis)
	case !tab.ok || sc.obj != tab.best:
		return fmt.Errorf("%v scores %d, the optimum is %d", res.Hypothesis, sc.obj, tab.best)
	}
	return nil
}

// learnResolve is Learn on the re-solve path: the wrapper hides the
// oracle's Decomposer methods, so every membership check parses, builds
// and solves tree programs.
func learnResolve(task *Task, opts ilasp.LearnOptions) (*Result, error) {
	weights := make([]int, len(task.Examples))
	for i, e := range task.Examples {
		weights[i] = e.Weight
	}
	sol, err := ilasp.Search(struct{ ilasp.Oracle }{&asgOracle{task: task}}, weights, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Covered: sol.Covered, Total: len(task.Examples), Checks: sol.Checks}
	for _, ci := range sol.Chosen {
		res.Hypothesis = append(res.Hypothesis, task.Space[ci])
		res.Cost += task.Space[ci].Cost()
	}
	return res, nil
}

// FuzzASGLearnDefinitional checks the ASG learner against brute force:
// Learn on the signature path and on the re-solve path must both reach
// the optimum objective with Covered equal to Task.Covers, and fail with
// the same error when they fail.
func FuzzASGLearnDefinitional(f *testing.F) {
	seeds := [][]byte{
		{},
		// :- v(1)@1. rejects "a" and keeps "b a".
		{0, 1, 0, 2, 25, 0, 0, 0},
		// @i atoms against comparisons, mixed polarity, two workers: the
		// optimum needs two constraints of cost 3.
		{10, 3, 1, 5, 3, 4, 1, 0, 48, 0, 40, 1, 25, 1},
		// The ambiguous "a b" (re-solve path), with at most two rules and
		// with one.
		{2, 3, 2, 0, 8, 3, 16, 3, 9, 1, 25, 0},
		{18, 3, 2, 0, 8, 3, 16, 3, 9, 1, 25, 0},
		// Several answer sets ({d}.) and no answer set (c, e, :- c, e.).
		{2, 2, 10, 7, 4, 1, 8, 0, 1, 8, 21, 9, 2},
		// Headed and choice candidates.
		{2, 3, 11, 12, 0, 2, 0, 0, 9, 1},
		// An unsafe candidate the search reaches: both paths fail alike.
		{2, 2, 13, 1, 2, 24, 0, 1, 0},
		// An out-of-range @3 and an unknown production.
		{2, 3, 14, 15, 0, 2, 0, 0, 9, 1},
		// Noisy soft examples with conflicting labels, an unparseable
		// string, and a hard example only :- c, not d. covers.
		{3, 3, 6, 7, 4, 4, 11, 1, 12, 1, 59, 0, 0, 1},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			return
		}
		task, opts := decodeASGTask(t, data)
		tab := bruteForceLearn(t, task, opts)
		sig, sigErr := task.Learn(opts)
		if e := tab.check(task, opts, sig, sigErr); e != nil {
			t.Fatalf("Learn: %v\ntask: %v\nopts: %+v", e, describe(task), opts)
		}
		res, err := learnResolve(task, opts)
		if e := tab.check(task, opts, res, err); e != nil {
			t.Fatalf("Learn (re-solve): %v\ntask: %v\nopts: %+v", e, describe(task), opts)
		}
		if fmt.Sprint(sigErr) != fmt.Sprint(err) {
			t.Fatalf("errors differ: signatures %v, re-solve %v\ntask: %v", sigErr, err, describe(task))
		}
	})
}

// describe renders a task for failure messages.
func describe(task *Task) string {
	var sb strings.Builder
	for _, h := range task.Space {
		fmt.Fprintf(&sb, " %s;", h)
	}
	for _, e := range task.Examples {
		fmt.Fprintf(&sb, " %s@%d in {%s};", e, e.Weight, strings.TrimSpace(e.Context.String()))
	}
	return sb.String()
}

// TestASGLearnCheckerRejectsNonOptimal: the brute-force checker accepts
// Learn's answer and rejects a costlier covering hypothesis, a wrong
// Covered count, an understated cost, a false ErrNoSolution and an error
// Task.Covers never reports.
func TestASGLearnCheckerRejectsNonOptimal(t *testing.T) {
	task := cavTask(t, []Example{
		{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear). loa(5)."), Positive: true},
		{ID: "p2", Tokens: toks("accept park"), Context: ctx(t, "weather(rain). loa(5)."), Positive: true},
		{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain). loa(5)."), Positive: false},
	})
	opts := ilasp.LearnOptions{MaxRules: 2}
	tab := bruteForceLearn(t, task, opts)
	res, err := task.Learn(opts)
	if e := tab.check(task, opts, res, err); e != nil {
		t.Fatalf("checker rejects Learn's answer %v: %v", res, e)
	}
	// :- task(overtake)@2, weather(rain). (index 0) is optimal; adding
	// :- loa(1). (index 4) still covers everything at a higher cost.
	costly := &Result{
		Hypothesis: []asg.HypothesisRule{task.Space[0], task.Space[4]},
		Cost:       task.Space[0].Cost() + task.Space[4].Cost(),
		Covered:    3,
		Total:      3,
	}
	wrongCovered := *res
	wrongCovered.Covered--
	cheap := *res
	cheap.Cost--
	for name, bad := range map[string]*Result{"costlier": costly, "covered": &wrongCovered, "cost": &cheap} {
		if tab.check(task, opts, bad, nil) == nil {
			t.Errorf("checker accepts the %s answer %v", name, bad)
		}
	}
	if tab.check(task, opts, nil, ilasp.ErrNoSolution) == nil {
		t.Error("checker accepts ErrNoSolution on a solvable task")
	}
	if tab.check(task, opts, nil, errors.New("asglearn: invented")) == nil {
		t.Error("checker accepts an error Task.Covers never reports")
	}
}

// TestSignaturePathTaken: constraint-only tasks whose examples have at
// most one parse tree and one base answer set are served from
// signatures, with one solve per parsed example; every other task falls
// back, and each fallback is counted. Both paths learn the same.
func TestSignaturePathTaken(t *testing.T) {
	searches, fallbacks := obs.C("ilasp.sig.searches"), obs.C("ilasp.sig.fallbacks")
	solveCalls := obs.C("asp.solve.calls")
	task := func(extra ...Example) *Task {
		return cavTask(t, append([]Example{
			{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true},
			{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
		}, extra...))
	}
	headed := task()
	headed.Space = append(headed.Space, MustParseHypothesisRule("deny :- weather(rain).", 0))
	outOfRange := task()
	outOfRange.Space = append(outOfRange.Space, MustParseHypothesisRule(":- task(park)@3.", 0))
	ambiguous := task()
	ambiguous.Initial = asg.MustParseASG(cavGrammar + `policy -> "accept" task` + "\n")
	cases := []struct {
		name   string
		task   *Task
		solves int64 // solve calls on the signature path; -1 falls back
	}{
		{"constraints", task(), 2},
		{"unparseable string", task(Example{ID: "x", Tokens: toks("accept fly")}), 2},
		{"unsatisfiable context", task(Example{ID: "x", Tokens: toks("accept park"), Context: ctx(t, "a. :- a.")}), 3},
		{"several answer sets", task(Example{ID: "x", Tokens: toks("accept park"), Context: ctx(t, "{a}.")}), -1},
		{"headed candidate", headed, -1},
		{"out-of-range candidate", outOfRange, -1},
		{"ambiguous string", ambiguous, -1},
	}
	opts := ilasp.LearnOptions{MaxRules: 2}
	for _, c := range cases {
		s0, f0, g0 := searches.Value(), fallbacks.Value(), solveCalls.Value()
		res, err := c.task.Learn(opts)
		ds, df, dg := searches.Value()-s0, fallbacks.Value()-f0, solveCalls.Value()-g0
		switch {
		case c.solves < 0 && (ds != 0 || df != 1):
			t.Errorf("%s: %d signature searches, %d fallbacks; want 0, 1", c.name, ds, df)
		case c.solves >= 0 && (ds != 1 || df != 0):
			t.Errorf("%s: %d signature searches, %d fallbacks; want 1, 0", c.name, ds, df)
		case c.solves >= 0 && dg != c.solves:
			t.Errorf("%s: %d solve calls on the signature path, want %d", c.name, dg, c.solves)
		}
		want, wantErr := learnResolve(c.task, opts)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, re-solve path %v", c.name, err, wantErr)
		} else if err == nil && (defKey(res.Hypothesis, res.Cost) != defKey(want.Hypothesis, want.Cost) || res.Covered != want.Covered) {
			t.Errorf("%s: learned %v, re-solve path %v", c.name, res, want)
		}
	}
}
