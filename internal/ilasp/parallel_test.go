package ilasp_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// datashareTask builds an exhaustive-learnable sharing task: offers are
// restricted to non-sigint types so the ground truth needs only two deny
// rules (low trust, low quality) and the exact search stays small.
func datashareTask(t *testing.T) *ilasp.Task {
	t.Helper()
	var offers []datashare.Offer
	for _, o := range datashare.Generate(7, 40) {
		if o.Type == "sigint" {
			continue
		}
		offers = append(offers, o)
		if len(offers) == 12 {
			break
		}
	}
	if len(offers) < 12 {
		t.Fatalf("sample too small: %d offers", len(offers))
	}
	return &ilasp.Task{
		Bias:     datashare.Bias(),
		Examples: datashare.LearningExamples(offers, 0),
	}
}

// xacmlTask builds an access-control learning task in the shape of the
// benchmark's learning jobs: an exact job over 80 clean labels, or a
// noise-tolerant job over 40 labels with 15% injected noise.
func xacmlTask(noisy bool) *ilasp.Task {
	schema := workload.DefaultSchema()
	size, weight := 80, 0
	if noisy {
		size, weight = 40, 10
	}
	ds := workload.GenXACMLWith(3, size, schema, workload.GroundTruthPolicy())
	if noisy {
		workload.InjectNoise(ds, 0.15, 4)
	}
	return &ilasp.Task{Bias: workload.AccessBias(schema, nil), Examples: workload.LearningExamples(ds.Examples, weight)}
}

// TestParallelLearnMatchesSerial checks the learners' one fan-out, the
// candidate-sharded signature build: at width 4 it must build the same
// signatures as at width 1 for the task each learner vectorizes — Learn
// on a datashare task, LearnIndependent's strict build on exact and
// noisy access-control tasks — and return the same strict-mode error
// when candidates fail on different examples. Run under -race this also
// exercises the workers' disjoint writes.
func TestParallelLearnMatchesSerial(t *testing.T) {
	cases := []struct {
		name    string
		task    func(*testing.T) *ilasp.Task
		strict  bool
		wantErr string // the error at both widths, "" for none
	}{
		{"datashare/Learn", datashareTask, false, ""},
		{"xacml-exact/LearnIndependent", func(*testing.T) *ilasp.Task { return xacmlTask(false) }, true, ""},
		{"xacml-noisy/LearnIndependent", func(*testing.T) *ilasp.Task { return xacmlTask(true) }, true, ""},
		{"strict-error/LearnIndependent", strictErrorTask, true,
			`ilasp: evaluating candidate "w((X + 1)) :- m(X).": arithmetic over non-integer terms b + 1`},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, serialErr := ilasp.Vectorize(c.task(t), 1, c.strict)
			parallel, parallelErr := ilasp.Vectorize(c.task(t), 4, c.strict)
			if got := errText(serialErr); got != c.wantErr {
				t.Fatalf("width 1: error %q, want %q", got, c.wantErr)
			}
			if got := errText(parallelErr); got != c.wantErr {
				t.Fatalf("width 4: error %q, want %q", got, c.wantErr)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatal("width 4 built different signatures from width 1")
			}
		})
	}
}

// strictErrorTask fails LearnIndependent's strict signature build three
// ways: its last example is negative, candidate 1 divides by zero on
// example e2 and candidate 3 adds to a constant on e1. A build meets the
// earliest example's error first, whichever worker evaluates it.
func strictErrorTask(t *testing.T) *ilasp.Task {
	t.Helper()
	space, err := asp.Parse(`
		q(X) :- p(X).
		s(10 / X) :- p(X).
		r(X) :- p(X).
		w(X + 1) :- m(X).
		u(X) :- m(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	task := &ilasp.Task{}
	for _, r := range space.Rules {
		task.Space = append(task.Space, ilasp.Candidate{Rule: r, Cost: 1})
	}
	for i, ctx := range []string{"p(1). m(1).", "p(2). m(b).", "p(0). m(2).", "p(3)."} {
		c, err := asp.Parse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		q := asp.NewAtom("q", asp.Integer{Value: i})
		task.Examples = append(task.Examples, ilasp.PosExample(fmt.Sprintf("e%d", i), []asp.Atom{q}, nil, c))
	}
	task.Examples[3].Positive = false
	return task
}

// TestLearnPropagatesExampleError: an example whose context fails to
// ground aborts the search with the error of the check that reached it,
// naming the example.
func TestLearnPropagatesExampleError(t *testing.T) {
	unsafe := asp.NewRule(asp.NewAtom("p", asp.Variable{Name: "X"})) // p(X). — unsafe
	task := datashareTask(t)
	task.Examples[4].Context.Add(unsafe)

	_, err := task.Learn(ilasp.LearnOptions{MaxRules: 2})
	if err == nil {
		t.Fatal("expected an error from the unsafe example context")
	}
	if !strings.Contains(err.Error(), "checking example o5") {
		t.Fatalf("error %q does not name the failing example", err)
	}
}

// TestLearnCheckBudgetOnSignatures: MaxChecks stops a signature-served
// search with ErrCheckBudget, as it stops a re-solving one.
func TestLearnCheckBudgetOnSignatures(t *testing.T) {
	_, err := datashareTask(t).Learn(ilasp.LearnOptions{MaxRules: 2, MaxChecks: 5})
	if !errors.Is(err, ilasp.ErrCheckBudget) {
		t.Fatalf("err = %v, want ErrCheckBudget", err)
	}
}
