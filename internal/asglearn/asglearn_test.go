package asglearn

import (
	"errors"
	"strings"
	"testing"

	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
)

func toks(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Fields(s)
}

func ctx(t *testing.T, src string) *asp.Program {
	t.Helper()
	p, err := asp.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

// cavGrammar is a miniature of the paper's CAV policy language: a policy
// accepts or rejects a driving task.
const cavGrammar = `
policy -> "accept" task
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

func cavTask(t *testing.T, examples []Example) *Task {
	t.Helper()
	g, err := asg.ParseASG(cavGrammar)
	if err != nil {
		t.Fatal(err)
	}
	// Space: constraints on the accept production referencing the task
	// child and context weather/loa facts.
	space := []asg.HypothesisRule{
		MustParseHypothesisRule(":- task(overtake)@2, weather(rain).", 0),
		MustParseHypothesisRule(":- task(park)@2, weather(rain).", 0),
		MustParseHypothesisRule(":- task(overtake)@2.", 0),
		MustParseHypothesisRule(":- weather(rain).", 0),
		MustParseHypothesisRule(":- loa(1).", 0),
	}
	return &Task{Initial: g, Space: space, Examples: examples}
}

func TestLearnContextDependentConstraint(t *testing.T) {
	// Ground truth: accepting an overtake is invalid in rain.
	task := cavTask(t, []Example{
		{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear). loa(5)."), Positive: true},
		{ID: "p2", Tokens: toks("accept park"), Context: ctx(t, "weather(rain). loa(5)."), Positive: true},
		{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain). loa(5)."), Positive: false},
		{ID: "p3", Tokens: toks("reject overtake"), Context: ctx(t, "weather(rain). loa(5)."), Positive: true},
	})
	res, err := task.Learn(ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 1 {
		t.Fatalf("hypothesis = %v", res.Hypothesis)
	}
	got := asg.DisplayRule(res.Hypothesis[0].Rule)
	if got != ":- task(overtake)@2, weather(rain)." {
		t.Errorf("learned %q", got)
	}
	if res.Hypothesis[0].ProdID != 0 {
		t.Errorf("rule attached to production %d, want 0", res.Hypothesis[0].ProdID)
	}
	if res.Covered != 4 || res.Total != 4 {
		t.Errorf("coverage %d/%d", res.Covered, res.Total)
	}

	// The learned grammar behaves per Definition 3 on fresh contexts.
	rain := ctx(t, "weather(rain).")
	ok, err := res.Grammar.WithContext(rain).Accepts(toks("accept overtake"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("learned GPM should reject accept-overtake in rain")
	}
	clear := ctx(t, "weather(clear).")
	ok, err = res.Grammar.WithContext(clear).Accepts(toks("accept overtake"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("learned GPM should admit accept-overtake in clear weather")
	}
}

func TestLearnPrefersCheaperHypothesis(t *testing.T) {
	// With only a negative rain example and no positive overtake-in-rain
	// counterweight, the cheaper blanket constraint ":- weather(rain)."
	// suffices (cost 1 vs cost 2).
	task := cavTask(t, []Example{
		{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
		{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true},
	})
	res, err := task.Learn(ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 1 {
		t.Fatalf("hypothesis = %v", res.Hypothesis)
	}
	got := asg.DisplayRule(res.Hypothesis[0].Rule)
	if got != ":- weather(rain)." {
		t.Errorf("learned %q, want the minimal blanket constraint", got)
	}
}

func TestLearnEmptyHypothesis(t *testing.T) {
	task := cavTask(t, []Example{
		{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true},
	})
	res, err := task.Learn(ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 0 {
		t.Errorf("want empty hypothesis, got %v", res.Hypothesis)
	}
}

func TestLearnNoSolution(t *testing.T) {
	// Contradictory examples: same string, same context, both polarities.
	task := cavTask(t, []Example{
		{ID: "p", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: true},
		{ID: "n", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
	})
	_, err := task.Learn(ilasp.LearnOptions{})
	if !errors.Is(err, ilasp.ErrNoSolution) {
		t.Errorf("err = %v, want ErrNoSolution", err)
	}
}

func TestLearnNoiseTolerant(t *testing.T) {
	// One mislabeled example (accept overtake in rain marked positive,
	// weight 1) against two heavier examples of the rain rule.
	task := cavTask(t, []Example{
		{ID: "good1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false, Weight: 10},
		{ID: "good2", Tokens: toks("accept park"), Context: ctx(t, "weather(rain)."), Positive: true, Weight: 10},
		{ID: "good3", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true, Weight: 10},
		{ID: "noisy", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: true, Weight: 1},
	})
	res, err := task.Learn(ilasp.LearnOptions{Noise: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 3 {
		t.Errorf("covered = %d, want 3 (noisy sacrificed)", res.Covered)
	}
	if len(res.Hypothesis) != 1 || asg.DisplayRule(res.Hypothesis[0].Rule) != ":- task(overtake)@2, weather(rain)." {
		t.Errorf("hypothesis = %v", res.Hypothesis)
	}
}

func TestLearnCheckBudget(t *testing.T) {
	task := cavTask(t, []Example{
		{ID: "p", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: true},
		{ID: "n", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
	})
	_, err := task.Learn(ilasp.LearnOptions{MaxChecks: 2})
	if !errors.Is(err, ilasp.ErrCheckBudget) {
		t.Errorf("err = %v, want ErrCheckBudget", err)
	}
}

func TestBuildSpace(t *testing.T) {
	g, err := asg.ParseASG(cavGrammar)
	if err != nil {
		t.Fatal(err)
	}
	bias := ilasp.Bias{
		Body: []ilasp.ModeAtom{
			ilasp.M(asg.EncodeAnnotated("task", 2), ilasp.Const("t")),
			ilasp.M("weather", ilasp.Const("w")),
		},
		Constants: map[string][]asp.Term{
			"t": {asp.Constant{Name: "overtake"}, asp.Constant{Name: "park"}},
			"w": {asp.Constant{Name: "rain"}, asp.Constant{Name: "clear"}},
		},
		AllowConstraints: true,
		MaxBody:          2,
	}
	space, err := BuildSpace(g, []ProductionBias{{ProdIDs: []int{0, 1}, Bias: bias}})
	if err != nil {
		t.Fatal(err)
	}
	if len(space) == 0 {
		t.Fatal("empty space")
	}
	// The ground-truth rule must be in the space for production 0.
	want := ":- task(overtake)@2, weather(rain)."
	found := false
	for _, h := range space {
		if h.ProdID == 0 && asg.DisplayRule(h.Rule) == want {
			found = true
		}
	}
	if !found {
		t.Errorf("space missing %q", want)
	}
	// And learning over the generated space works end to end.
	task := &Task{
		Initial: g,
		Space:   space,
		Examples: []Example{
			{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true},
			{ID: "p2", Tokens: toks("accept park"), Context: ctx(t, "weather(rain)."), Positive: true},
			{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
			{ID: "p3", Tokens: toks("reject overtake"), Context: ctx(t, "weather(rain)."), Positive: true},
		},
	}
	res, err := task.Learn(ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 1 || asg.DisplayRule(res.Hypothesis[0].Rule) != want {
		t.Errorf("learned %v", res.Hypothesis)
	}
}

func TestBuildSpaceUnknownProduction(t *testing.T) {
	g, err := asg.ParseASG(cavGrammar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = BuildSpace(g, []ProductionBias{{ProdIDs: []int{99}, Bias: ilasp.Bias{
		Body:             []ilasp.ModeAtom{ilasp.M("weather", ilasp.Const("w"))},
		Constants:        map[string][]asp.Term{"w": {asp.Constant{Name: "rain"}}},
		AllowConstraints: true,
	}}})
	if err == nil {
		t.Error("expected unknown production error")
	}
}

func TestParseHypothesisRuleErrors(t *testing.T) {
	if _, err := ParseHypothesisRule("not a rule", 0); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParseHypothesisRule("a. b.", 0); err == nil {
		t.Error("expected one-rule error")
	}
}

func TestExampleString(t *testing.T) {
	e := Example{ID: "e1", Tokens: toks("accept park"), Positive: true}
	if got := e.String(); got != `#pos(e1) "accept park"` {
		t.Errorf("String = %q", got)
	}
}

func TestResultString(t *testing.T) {
	task := cavTask(t, []Example{
		{ID: "n1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(rain)."), Positive: false},
		{ID: "p1", Tokens: toks("accept overtake"), Context: ctx(t, "weather(clear)."), Positive: true},
	})
	res, err := task.Learn(ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "covered 2/2") || !strings.Contains(s, "weather(rain)") {
		t.Errorf("Result.String = %q", s)
	}
	if res.Checks == 0 {
		t.Error("checks not counted")
	}
}
