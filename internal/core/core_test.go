package core

import (
	"sync"
	"testing"

	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/asp"
)

const drivingGrammar = `
policy -> "accept" task
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

func newGPM(t *testing.T) *GPM {
	t.Helper()
	m, err := ParseGPM(drivingGrammar)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ctxProg(t *testing.T, src string) *asp.Program {
	t.Helper()
	p, err := asp.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLint(t *testing.T) {
	// The driving grammar is clean.
	if fs := newGPM(t).Lint(nil); fs.HasErrors() {
		t.Errorf("clean model has lint errors: %v", fs)
	}
	// A model referencing a context-supplied predicate warns without a
	// context and is quiet with one.
	m, err := ParseGPM(`policy -> "fly" { :- not weather(clear). }`)
	if err != nil {
		t.Fatal(err)
	}
	fs := m.Lint(nil)
	warned := false
	for _, f := range fs {
		if f.Code == "asg-underivable" {
			warned = true
		}
	}
	if !warned {
		t.Errorf("context dependency not surfaced: %v", fs)
	}
	if fs := m.Lint(ctxProg(t, "weather(clear).")); len(fs) != 0 {
		t.Errorf("findings under satisfying context: %v", fs)
	}
	// An unsafe annotation is an error.
	m, err = ParseGPM(`policy -> "fly" { grant(X). }`)
	if err != nil {
		t.Fatal(err)
	}
	if fs := m.Lint(nil); !fs.HasErrors() {
		t.Errorf("unsafe model not rejected: %v", fs)
	}
}

func TestGenerateAllPolicies(t *testing.T) {
	m := newGPM(t)
	ps, err := m.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("got %d policies, want 4", len(ps))
	}
	ids := make(map[string]bool)
	for _, p := range ps {
		ids[p.ID] = true
	}
	for _, want := range []string{"accept_overtake", "accept_park", "reject_overtake", "reject_park"} {
		if !ids[want] {
			t.Errorf("missing policy %s in %v", want, ids)
		}
	}
}

// TestGenerateBounded: generation stops at MaxPolicyNodes, so a
// recursive grammar yields a finite language. "accept"ᵏ derives with 2k
// nodes.
func TestGenerateBounded(t *testing.T) {
	m, err := ParseGPM(`policy -> "accept" | "accept" policy`)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := m.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != MaxPolicyNodes/2 {
		t.Errorf("got %d policies, want %d", len(ps), MaxPolicyNodes/2)
	}
}

func TestValidate(t *testing.T) {
	m := newGPM(t)
	ok, err := m.Validate([]string{"accept", "overtake"}, nil)
	if err != nil || !ok {
		t.Errorf("Validate = %v, %v", ok, err)
	}
	ok, err = m.Validate([]string{"accept", "fly"}, nil)
	if err != nil || ok {
		t.Errorf("invalid string accepted: %v, %v", ok, err)
	}
}

func TestEvolveLearnsConstraintAndRegenerates(t *testing.T) {
	m := newGPM(t)
	space := []asg.HypothesisRule{
		asglearn.MustParseHypothesisRule(":- task(overtake)@2, weather(rain).", 0),
		asglearn.MustParseHypothesisRule(":- weather(rain).", 0),
	}
	examples := []asglearn.Example{
		{ID: "p1", Tokens: []string{"accept", "overtake"}, Context: ctxProg(t, "weather(clear)."), Positive: true},
		{ID: "p2", Tokens: []string{"accept", "park"}, Context: ctxProg(t, "weather(rain)."), Positive: true},
		{ID: "n1", Tokens: []string{"accept", "overtake"}, Context: ctxProg(t, "weather(rain)."), Positive: false},
	}
	evo, err := m.Evolve(space, examples)
	if err != nil {
		t.Fatal(err)
	}
	if len(evo.Hypothesis) != 1 {
		t.Fatalf("hypothesis = %v", evo.Hypothesis)
	}
	if evo.Covered != 3 || evo.Total != 3 || evo.Checks == 0 {
		t.Errorf("evolution stats = %+v", evo)
	}

	// The evolved model generates context-dependent policy sets.
	rain, err := evo.Model.Generate(ctxProg(t, "weather(rain)."))
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, p := range rain {
		ids[p.ID] = true
	}
	if ids["accept_overtake"] {
		t.Error("rain context must not generate accept overtake")
	}
	if !ids["accept_park"] || !ids["reject_overtake"] {
		t.Errorf("rain policies = %v", ids)
	}

	clear, err := evo.Model.Generate(ctxProg(t, "weather(clear)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(clear) != 4 {
		t.Errorf("clear context policies = %d, want 4", len(clear))
	}

	// Original model unchanged.
	all, err := m.Generate(ctxProg(t, "weather(rain)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Errorf("Evolve mutated the receiver (got %d policies)", len(all))
	}
}

func TestEvolveNoSolution(t *testing.T) {
	m := newGPM(t)
	examples := []asglearn.Example{
		{ID: "p", Tokens: []string{"accept", "overtake"}, Positive: true},
		{ID: "n", Tokens: []string{"accept", "overtake"}, Positive: false},
	}
	if _, err := m.Evolve(nil, examples); err == nil {
		t.Error("contradictory examples should fail")
	}
}

func TestExamplesFromFeedback(t *testing.T) {
	fb := []Feedback{
		{Tokens: []string{"accept", "park"}, Valid: true},
		{Tokens: []string{"accept", "overtake"}, Valid: false},
	}
	ex := ExamplesFromFeedback(fb)
	if len(ex) != 2 || !ex[0].Positive || ex[1].Positive {
		t.Errorf("examples = %+v", ex)
	}
	if ex[0].ID == ex[1].ID {
		t.Error("examples share ids")
	}
}

func TestRepresentations(t *testing.T) {
	m := newGPM(t)
	r := NewRepresentations(m)
	if r.Version() != 1 || r.Latest() != m {
		t.Fatalf("initial state wrong")
	}
	m2 := newGPM(t)
	r.Push(m2)
	if r.Version() != 2 || r.Latest() != m2 {
		t.Errorf("push state wrong")
	}
	got, err := r.At(0)
	if err != nil || got != m {
		t.Errorf("At(0) = %v, %v", got, err)
	}
	if _, err := r.At(5); err == nil {
		t.Error("At(5) should fail")
	}
}

func TestRepresentationsConcurrency(t *testing.T) {
	r := NewRepresentations(newGPM(t))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Push(&GPM{})
				r.Latest()
				r.Version()
			}
		}()
	}
	wg.Wait()
	if r.Version() != 201 {
		t.Errorf("Version = %d, want 201", r.Version())
	}
}

func TestPolicyID(t *testing.T) {
	if PolicyID([]string{"accept", "overtake"}) != "accept_overtake" {
		t.Error("PolicyID broken")
	}
}

func TestParseGPMError(t *testing.T) {
	if _, err := ParseGPM("not a grammar"); err == nil {
		t.Error("expected parse error")
	}
}
