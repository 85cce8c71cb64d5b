package ilasp_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/obs"
	"agenp/internal/workload"
)

// hypothesis renders a result for comparison: rules, cost, coverage and
// the check count.
func hypothesis(r *ilasp.Result) string {
	return fmt.Sprintf("%v cost=%d covered=%d/%d checks=%d", r.Hypothesis, r.Cost, r.Covered, r.Total, r.Checks)
}

// TestGuardsKeepSignatures: the signatures built with guards, where
// ground body atoms refute most (candidate, example) pairs and decided
// candidates are read off their guard bits, equal those of a build that
// evaluates every pair, at widths 1 and 4. The tasks are the
// access-control job shapes, with and without threshold comparisons
// (which stay undecided), and patternTask, whose space mixes decided
// candidates carrying pattern guards with undecided ones and
// constraints. Each guarded build decides some pairs.
func TestGuardsKeepSignatures(t *testing.T) {
	decided := obs.C("ilasp.sig.decided")
	thresholds := func() *ilasp.Task {
		task := xacmlTask(false)
		task.Bias = workload.AccessBias(workload.DefaultSchema(), []int{30, 50})
		return task
	}
	cases := []struct {
		name   string
		task   func() *ilasp.Task
		strict bool
	}{
		{"exact", func() *ilasp.Task { return xacmlTask(false) }, true},
		{"noisy", func() *ilasp.Task { return xacmlTask(true) }, true},
		{"thresholds", thresholds, true},
		{"patterns", func() *ilasp.Task { return patternTask(t) }, false},
	}
	for _, c := range cases {
		want, err := ilasp.VectorizeEveryPair(c.task(), 1, c.strict)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 4} {
			before := decided.Value()
			got, err := ilasp.Vectorize(c.task(), width, c.strict)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s width %d: guards changed the signatures", c.name, width)
			}
			if decided.Value() == before {
				t.Errorf("%s width %d: no pair was decided", c.name, width)
			}
		}
	}
}

// patternTask is an independent task over an explicit space. Decided
// candidates carry pattern guards (p(X), r(X, c), ...), alone or beside
// ground guards, a ground compound argument or a guard the background
// derives (b). Undecided ones repeat a variable within an atom or across
// atoms, compare, negate, or nest a variable in a compound. Constraints
// come decided and undecided. The contexts make each pattern hold in some
// examples only, and make a repeated-variable body false where its
// patterns hold (r(1, 2) but no r(X, X); p(1) and s(3) but no shared X).
func patternTask(t *testing.T) *ilasp.Task {
	t.Helper()
	parse := func(src string) *asp.Program {
		p, err := asp.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var space []ilasp.Candidate
	for _, r := range parse(`
		h(1) :- p(X).
		h(2) :- p(X), q(a).
		h(3) :- r(X, c), s(Y).
		h(1) :- r(f(1), X).
		h(2) :- b, p(X).
		h(4).
		h(3) :- r(X, X).
		h(4) :- p(X), s(X).
		h(2) :- p(X), X >= 2.
		h(1) :- p(X), not q(a).
		h(3) :- s(f(X)).
		:- r(X, c), q(b).
		:- p(X), s(X).
	`).Rules {
		space = append(space, ilasp.Candidate{Rule: r, Cost: len(r.Body) + 1})
	}
	h := func(v int) asp.Atom { return asp.NewAtom("h", asp.Integer{Value: v}) }
	return &ilasp.Task{
		Background: parse("b :- a."),
		Space:      space,
		Examples: []ilasp.Example{
			{ID: "e1", Positive: true, Inclusions: []asp.Atom{h(1), h(3)}, Exclusions: []asp.Atom{h(4)},
				Context: parse("p(1). r(1, 2). s(3). q(a). a.")},
			{ID: "e2", Positive: true, Inclusions: []asp.Atom{h(2)}, Context: parse("p(2). r(2, 2). q(b).")},
			{ID: "e3", Positive: false, Inclusions: []asp.Atom{h(3)}, Context: parse("r(1, c). s(1). p(1).")},
			{ID: "e4", Positive: true, Inclusions: []asp.Atom{h(4)}, Exclusions: []asp.Atom{h(2)},
				Context: parse("r(f(1), 3). s(f(2)).")},
			{ID: "e5", Positive: true, Inclusions: []asp.Atom{h(1)}, Context: parse("q(a).")},
		},
	}
}

// TestLearnedHypothesisOwnsItsRules: a learned hypothesis shares no
// memory with the memoized space it was chosen from. Overwriting its
// first rule's body literal and head in place must not change what the
// next learner over the same bias returns.
func TestLearnedHypothesisOwnsItsRules(t *testing.T) {
	learners := []struct {
		name  string
		learn func() (*ilasp.Result, error)
	}{
		{"LearnIndependent", func() (*ilasp.Result, error) {
			return xacmlTask(false).LearnIndependent(ilasp.LearnOptions{MaxRules: 4})
		}},
		{"Learn", func() (*ilasp.Result, error) {
			return datashareTask(t).Learn(ilasp.LearnOptions{MaxRules: 2})
		}},
	}
	for _, l := range learners {
		t.Run(l.name, func(t *testing.T) {
			res, err := l.learn()
			if err != nil {
				t.Fatal(err)
			}
			want := hypothesis(res)
			if len(res.Hypothesis) == 0 || res.Hypothesis[0].Head == nil || len(res.Hypothesis[0].Body) == 0 {
				t.Fatalf("need a headed first rule with a body, learned %s", want)
			}
			clobbered := asp.NewAtom("clobbered", asp.Constant{Name: "x"})
			res.Hypothesis[0].Body[0] = asp.PosLit(clobbered)
			*res.Hypothesis[0].Head = clobbered
			again, err := l.learn()
			if err != nil {
				t.Fatal(err)
			}
			if got := hypothesis(again); got != want {
				t.Fatalf("after overwriting the first hypothesis, learning again gives\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestConcurrentLearnersShareSpace runs LearnIndependent from several
// goroutines over one bias content: every caller gets the serial answer.
// Under -race this checks the memo's locking and that learners only read
// the shared space.
func TestConcurrentLearnersShareSpace(t *testing.T) {
	want := make([]string, 2)
	for i, noisy := range []bool{false, true} {
		res, err := xacmlTask(noisy).LearnIndependent(ilasp.LearnOptions{MaxRules: 4, Noise: noisy})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hypothesis(res)
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			noisy := g%2 == 1
			res, err := xacmlTask(noisy).LearnIndependent(ilasp.LearnOptions{MaxRules: 4, Noise: noisy})
			if err != nil {
				got[g] = err.Error()
				return
			}
			got[g] = hypothesis(res)
		}(g)
	}
	wg.Wait()
	for g, h := range got {
		if h != want[g%2] {
			t.Errorf("goroutine %d learned\n%s\nwant\n%s", g, h, want[g%2])
		}
	}
}

// TestBiasTaskMatchesExplicitSpace: for several distinct biases learned
// in one process, a task over the bias (served by the memo) and a task
// over the bias's enumerated space learn identical results, each time.
func TestBiasTaskMatchesExplicitSpace(t *testing.T) {
	schema := workload.DefaultSchema()
	xacml := func(thresholds []int) (ilasp.Bias, *ilasp.Task) {
		ds := workload.GenXACMLWith(5, 40, schema, workload.GroundTruthPolicy())
		return workload.AccessBias(schema, thresholds), &ilasp.Task{Examples: workload.LearningExamples(ds.Examples, 0)}
	}
	cases := []struct {
		name string
		task func() (ilasp.Bias, *ilasp.Task)
		opts ilasp.LearnOptions
	}{
		{"xacml", func() (ilasp.Bias, *ilasp.Task) { return xacml(nil) }, ilasp.LearnOptions{MaxRules: 4}},
		{"xacml-thresholds", func() (ilasp.Bias, *ilasp.Task) { return xacml([]int{30, 50}) }, ilasp.LearnOptions{MaxRules: 4}},
		{"cav", func() (ilasp.Bias, *ilasp.Task) {
			return cav.Bias(), &ilasp.Task{Background: cav.Background(), Examples: cav.LearningExamples(cav.Generate(2, 30), 0)}
		}, ilasp.LearnOptions{MaxRules: 3}},
		{"datashare", func() (ilasp.Bias, *ilasp.Task) {
			return datashare.Bias(), &ilasp.Task{Examples: datashare.LearningExamples(datashare.Generate(3, 30), 0)}
		}, ilasp.LearnOptions{MaxRules: 3}},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			bias, viaBias := c.task()
			viaBias.Bias = bias
			space, err := bias.Space()
			if err != nil {
				t.Fatal(err)
			}
			_, viaSpace := c.task()
			viaSpace.Space = space
			a, errA := viaBias.LearnIndependent(c.opts)
			b, errB := viaSpace.LearnIndependent(c.opts)
			if errA != nil || errB != nil {
				t.Fatalf("%s: errors: bias %v, space %v", c.name, errA, errB)
			}
			if ha, hb := hypothesis(a), hypothesis(b); ha != hb {
				t.Errorf("round %d, %s: bias task learned\n%s\nspace task learned\n%s", round, c.name, ha, hb)
			}
		}
	}
}
