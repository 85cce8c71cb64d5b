package apps_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"agenp/internal/apps"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/apps/federated"
	"agenp/internal/apps/resupply"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
)

// domain is one application's use of the shared learner, as its package
// exposes it.
type domain[C apps.Case] struct {
	name       string
	idPrefix   string
	background *asp.Program
	bias       ilasp.Bias
	generate   func(seed uint64, n int) []C
	examples   func(cases []C, weight int) []ilasp.Example
	learn      func(train []C, opts ilasp.LearnOptions) (*apps.Learned[C], error)
}

func TestDomainsShareTheLearner(t *testing.T) {
	t.Run("cav", func(t *testing.T) {
		checkDomain(t, domain[cav.Scenario]{"cav", "s", cav.Background(), cav.Bias(), cav.Generate, cav.LearningExamples, cav.Learn})
	})
	t.Run("datashare", func(t *testing.T) {
		checkDomain(t, domain[datashare.Offer]{"datashare", "o", nil, datashare.Bias(), datashare.Generate, datashare.LearningExamples, datashare.Learn})
	})
	t.Run("federated", func(t *testing.T) {
		checkDomain(t, domain[federated.Update]{"federated", "u", nil, federated.Bias(), federated.Generate, federated.LearningExamples, federated.Learn})
	})
	t.Run("resupply", func(t *testing.T) {
		checkDomain(t, domain[resupply.Mission]{"resupply", "m", nil, resupply.Bias(), resupply.Generate, resupply.LearningExamples, resupply.Learn})
	})
}

func checkDomain[C apps.Case](t *testing.T, d domain[C]) {
	cases := d.generate(13, 150)

	// Examples: the rule each domain spelled out before sharing it.
	deny := asp.NewAtom("decision", asp.Constant{Name: "deny"})
	for _, weight := range []int{0, 10} {
		got := d.examples(cases, weight)
		if len(got) != len(cases) {
			t.Fatalf("weight %d: %d examples for %d cases", weight, len(got), len(cases))
		}
		for i, c := range cases {
			want := ilasp.Example{ID: fmt.Sprintf("%s%d", d.idPrefix, i+1), Positive: true, Context: c.Context(), Weight: weight}
			if c.Allowed() {
				want.Exclusions = []asp.Atom{deny}
			} else {
				want.Inclusions = []asp.Atom{deny}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("weight %d: example %d = %v, want %v", weight, i, got[i], want)
			}
		}
	}

	// Predict: one solve of background ∪ context ∪ hypothesis agrees with
	// applying each learned rule to the context's model.
	for _, n := range []int{8, 30, 80} {
		learned, err := d.learn(cases[:n], ilasp.LearnOptions{})
		if err != nil {
			t.Fatalf("train %d: %v", n, err)
		}
		for i, c := range cases {
			got, err := learned.Predict(c)
			if err != nil {
				t.Fatalf("train %d, case %d: %v", n, i, err)
			}
			if want := evalRules(t, d.background, c, learned.Result.Hypothesis); got != want {
				t.Fatalf("train %d, case %d: Predict = %v, rule-by-rule = %v\nhypothesis:\n%s", n, i, got, want, learned.Result)
			}
		}
	}

	// A case whose context has no answer set is an error naming the
	// domain.
	learned, err := apps.Learn[unsolvable[C]](d.name, d.background, d.bias, d.examples(cases[:30], 0), ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = learned.Predict(unsolvable[C]{cases[0]})
	if err == nil {
		t.Fatal("Predict on an unsolvable context returned no error")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, d.name+": ") || strings.Contains(msg, "%!") {
		t.Errorf("error = %q, want it to name %q and carry no formatting residue", msg, d.name)
	}
}

// evalRules is the pre-sharing prediction: solve background ∪ context,
// then allow the case unless some learned rule derives the deny decision
// in that model.
func evalRules(t *testing.T, background *asp.Program, c apps.Case, hyp []asp.Rule) bool {
	t.Helper()
	prog := asp.NewProgram()
	prog.Extend(background)
	prog.Extend(c.Context())
	models, err := asp.Solve(prog, asp.SolveOptions{MaxModels: 1})
	if err != nil || len(models) != 1 {
		t.Fatalf("context: %d models, err %v", len(models), err)
	}
	deny := asp.NewAtom("decision", asp.Constant{Name: "deny"})
	for _, r := range hyp {
		heads, err := asp.EvalRule(r, models[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heads {
			if h.Key() == deny.Key() {
				return false
			}
		}
	}
	return true
}

// unsolvable is a case whose context has no answer set.
type unsolvable[C apps.Case] struct{ c C }

func (u unsolvable[C]) Context() *asp.Program {
	p, err := asp.Parse("p :- not p.")
	if err != nil {
		panic(err)
	}
	return p
}
func (u unsolvable[C]) Allowed() bool               { return u.c.Allowed() }
func (u unsolvable[C]) Features() map[string]string { return u.c.Features() }
func (u unsolvable[C]) Label() string               { return u.c.Label() }
