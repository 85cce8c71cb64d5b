// Package apps is the flat decision learner shared by the paper's
// Section IV applications (packages cav, datashare, federated and
// resupply). Each application is one task: from cases labelled in their
// context, learn when a request must be denied. A case becomes a positive
// ILASP example over its context that requires decision(deny) when the
// case was denied and excludes it when it was allowed; the learned deny
// rules then decide new cases under deny-overrides with default allow.
//
// The domain packages supply the vocabulary (case types, contexts,
// background knowledge, language bias); this package owns examples,
// learning, prediction and scoring, plus the feature encoding for the
// shallow-ML baselines of package mlbase.
package apps

import (
	"fmt"

	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/mlbase"
)

// Case is one labelled decision instance of an application domain.
type Case interface {
	// Context renders the case as ASP facts.
	Context() *asp.Program
	// Allowed is the ground-truth label: false when the request must be
	// denied.
	Allowed() bool
	// Features encodes the case for the shallow-ML baselines.
	Features() map[string]string
	// Label renders the ground-truth class.
	Label() string
}

// denyAtom is the decision atom the learner targets: a case is denied
// when a learned rule derives it, and allowed otherwise.
func denyAtom() asp.Atom {
	return asp.NewAtom("decision", asp.Constant{Name: "deny"})
}

// Examples converts labelled cases into learner examples with IDs
// prefix1, prefix2, …: every example is positive over the case's
// context; a denied case requires the deny decision and an allowed one
// excludes it.
func Examples[C Case](prefix string, cases []C, weight int) []ilasp.Example {
	deny := denyAtom()
	out := make([]ilasp.Example, len(cases))
	for i, c := range cases {
		ex := ilasp.Example{
			ID:       fmt.Sprintf("%s%d", prefix, i+1),
			Positive: true,
			Context:  c.Context(),
			Weight:   weight,
		}
		if c.Allowed() {
			ex.Exclusions = []asp.Atom{deny}
		} else {
			ex.Inclusions = []asp.Atom{deny}
		}
		out[i] = ex
	}
	return out
}

// Instances converts cases for package mlbase.
func Instances[C Case](cases []C) []mlbase.Instance {
	out := make([]mlbase.Instance, len(cases))
	for i, c := range cases {
		out[i] = mlbase.Instance{Features: c.Features(), Label: c.Label()}
	}
	return out
}

// Learned is a trained decision policy over cases of type C.
type Learned[C Case] struct {
	Result *ilasp.Result

	domain     string
	background *asp.Program
}

// Learn learns domain's deny rules from examples (built by Examples)
// under the background (nil when the domain has none) and bias. MaxRules
// defaults to 3; errors are prefixed with the domain name.
func Learn[C Case](domain string, background *asp.Program, bias ilasp.Bias, examples []ilasp.Example, opts ilasp.LearnOptions) (*Learned[C], error) {
	task := &ilasp.Task{Background: background, Bias: bias, Examples: examples}
	if opts.MaxRules == 0 {
		opts.MaxRules = 3
	}
	res, err := task.LearnIndependent(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: learning: %w", domain, err)
	}
	return &Learned[C]{Result: res, domain: domain, background: background}, nil
}

// Predict decides a case: it is allowed iff the answer set of
// background ∪ context ∪ hypothesis does not contain the deny decision.
// A context with no answer set is an error.
func (l *Learned[C]) Predict(c C) (allowed bool, err error) {
	prog := asp.NewProgram()
	prog.Extend(l.background)
	prog.Extend(c.Context())
	prog.Add(l.Result.Hypothesis...)
	models, err := asp.Solve(prog, asp.SolveOptions{MaxModels: 1})
	if err != nil {
		return false, fmt.Errorf("%s: predict: %w", l.domain, err)
	}
	if len(models) == 0 {
		return false, fmt.Errorf("%s: case context has no answer set", l.domain)
	}
	return !models[0].Contains(denyAtom()), nil
}

// Accuracy scores the learned policy: the fraction of test cases whose
// prediction matches their label (0 for no cases).
func (l *Learned[C]) Accuracy(test []C) (float64, error) {
	if len(test) == 0 {
		return 0, nil
	}
	correct := 0
	for _, c := range test {
		got, err := l.Predict(c)
		if err != nil {
			return 0, err
		}
		if got == c.Allowed() {
			correct++
		}
	}
	return float64(correct) / float64(len(test)), nil
}
