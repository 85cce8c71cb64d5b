// Package integration exercises the whole stack end to end: intent
// compilation, generative policy models, the AGENP loop, coalition
// sharing, learning, quality assessment and explanation — the flows a
// downstream adopter would wire together.
package integration

import (
	"strings"
	"testing"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/asp"
	"agenp/internal/coalition"
	"agenp/internal/core"
	"agenp/internal/explain"
	"agenp/internal/ilasp"
	"agenp/internal/intent"
	"agenp/internal/quality"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

// TestIntentToCoalition drives: controlled-English intent -> compiled
// ASG -> two AMS parties with different contexts -> coalition sharing
// with PCP vetting.
func TestIntentToCoalition(t *testing.T) {
	grammar, err := intent.CompileSource(`
policy: release or retain report
report: weather, casualty, logistics
never release casualty when audience is public
never release any report when classification is secret
`)
	if err != nil {
		t.Fatal(err)
	}

	mkAMS := func(name, ctxSrc string) *agenp.AMS {
		t.Helper()
		ctx, err := asp.Parse(ctxSrc)
		if err != nil {
			t.Fatal(err)
		}
		ams, err := agenp.New(agenp.Config{
			Name:    name,
			Model:   core.New(grammar),
			Context: &agenp.StaticContext{Program: ctx},
			Interpreter: &agenp.TokenInterpreter{
				PermitVerbs: []string{"release"},
				DenyVerbs:   []string{"retain"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ams
	}
	internalDesk := mkAMS("internal-desk", "audience(internal). classification(open).")
	pressDesk := mkAMS("press-desk", "audience(public). classification(open).")

	if _, _, err := internalDesk.Regenerate(); err != nil {
		t.Fatal(err)
	}
	// Internal desk may release everything (3 release + 3 retain).
	if internalDesk.Repository().Len() != 6 {
		t.Fatalf("internal desk policies = %d", internalDesk.Repository().Len())
	}

	bus := coalition.NewBus()
	defer func() { _ = bus.Close() }()
	pInternal, err := coalition.Join(internalDesk, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pInternal.Leave()
	pPress, err := coalition.Join(pressDesk, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pPress.Leave()

	if err := pInternal.SharePolicies(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		i, r := pPress.ImportStats()
		if i+r == 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	imported, rejected := pPress.ImportStats()
	// The press desk's PCP rejects release-casualty (public audience).
	if imported != 5 || rejected != 1 {
		t.Fatalf("press desk imported %d rejected %d, want 5/1", imported, rejected)
	}
	if _, ok := pressDesk.Repository().Get("release_casualty"); ok {
		t.Error("release casualty adopted by the press desk")
	}
}

// TestLearnDeployExplain drives: learn a policy from a decision log,
// deploy it as XACML, assess quality, resolve a conflict, and explain a
// denial.
func TestLearnDeployExplain(t *testing.T) {
	ds := workload.GenXACML(99, 80)
	task := &ilasp.Task{
		Bias:     workload.AccessBias(ds.Schema, nil),
		Examples: workload.LearningExamples(ds.Examples, 0),
	}
	res, err := task.LearnIndependent(ilasp.LearnOptions{MaxRules: 4})
	if err != nil {
		t.Fatal(err)
	}
	learned, err := xacml.PolicyFromHypothesis(res.Hypothesis, "deployed")
	if err != nil {
		t.Fatal(err)
	}

	// Quality gate before deployment.
	reqs := make([]xacml.Request, len(ds.Examples))
	for i, e := range ds.Examples {
		reqs[i] = e.Request
	}
	domain := quality.FromBias(xacml.BiasFromRequests(reqs))
	rep := quality.Assess(learned, domain, quality.Options{})
	if !rep.Consistent {
		t.Fatalf("learned policy inconsistent: %v", rep.Conflicts)
	}
	if len(rep.Irrelevant) != 0 {
		t.Errorf("irrelevant learned rules: %v", rep.Irrelevant)
	}

	// Explanation of a denial, with a counterfactual.
	denied := xacml.NewRequest().
		Set(xacml.Subject, "role", xacml.S("guest")).
		Set(xacml.Subject, "age", xacml.I(30)).
		Set(xacml.Resource, "type", xacml.S("log")).
		Set(xacml.Action, "id", xacml.S("write"))
	trace := explain.Explain(learned, denied)
	if trace.Decision != xacml.DecisionDeny {
		t.Fatalf("expected denial, got %v", trace.Decision)
	}
	cfs := explain.Counterfactuals(learned, denied, domain, explain.CounterfactualOptions{
		Want: xacml.DecisionPermit,
	})
	if len(cfs) == 0 {
		t.Fatal("no counterfactual for the denial")
	}
	// Every counterfactual must actually flip the decision.
	for _, cf := range cfs {
		probe := denied.Clone()
		for k, v := range cf.Changes {
			cat, attr, _ := strings.Cut(k, ".")
			probe.Set(xacml.Category(cat), attr, v)
		}
		if learned.Evaluate(probe) != xacml.DecisionPermit {
			t.Errorf("counterfactual %s does not flip the decision", cf)
		}
	}
}

// TestAdaptationConvergence: repeated violation feedback converges the
// CAV model to the ground truth within two adaptations, and the learned
// model stops producing violations.
func TestAdaptationConvergence(t *testing.T) {
	model, err := core.ParseGPM(cav.LearnableGrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	rainy := cav.Scenario{Weather: "rain", LOA: 2, RegionMin: 4}
	ctx := rainy.EnvContext()
	ctx.Extend(cav.Background())
	ams, err := agenp.New(agenp.Config{
		Name:    "cav",
		Model:   model,
		Space:   space,
		Context: &agenp.StaticContext{Program: ctx},
		Interpreter: &agenp.TokenInterpreter{
			PermitVerbs: []string{"accept"},
			DenyVerbs:   []string{"reject"},
		},
		AdaptThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}

	// In this context (rain + LOA below the region minimum) EVERY accept
	// policy is a violation; report two and adapt.
	for _, task := range []string{"overtake", "park"} {
		if _, err := ams.Observe(core.Feedback{
			Tokens:  []string{"accept", task},
			Context: ctx,
			Valid:   false,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if ams.Adaptations() != 1 {
		t.Fatalf("adaptations = %d", ams.Adaptations())
	}
	// After adaptation no accept policy survives in this context.
	for _, p := range ams.Repository().List() {
		if p.Tokens[0] == "accept" {
			t.Errorf("accept policy %q survived adaptation", p.Text())
		}
	}
	// The learned model still admits accepts in a benign context.
	benign := cav.Scenario{Weather: "clear", LOA: 5, RegionMin: 1}
	bctx := benign.EnvContext()
	bctx.Extend(cav.Background())
	policies, err := ams.Models().Latest().Generate(bctx)
	if err != nil {
		t.Fatal(err)
	}
	hasAccept := false
	for _, p := range policies {
		if p.Tokens[0] == "accept" {
			hasAccept = true
		}
	}
	if !hasAccept {
		t.Error("adapted model over-restricts the benign context")
	}
}

// TestDefinitionThreeEquivalence cross-checks the two learner layers:
// learning an ASG constraint via asglearn equals constraining via a flat
// ILASP deny-rule on the same scenarios.
func TestDefinitionThreeEquivalence(t *testing.T) {
	scenarios := cav.Generate(5, 30)

	// Flat ILASP path.
	flat, err := cav.Learn(scenarios, ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// ASG path over the equivalent space.
	initial, err := asg.ParseASG(cav.LearnableGrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	var examples []asglearn.Example
	for i, s := range scenarios {
		ctx := s.EnvContext()
		ctx.Extend(cav.Background())
		examples = append(examples, asglearn.Example{
			ID:       "s" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Tokens:   []string{"accept", s.Task},
			Context:  ctx,
			Positive: s.Accept,
		})
	}
	asgTask := &asglearn.Task{Initial: initial, Space: space, Examples: examples}
	asgRes, err := asgTask.Learn(ilasp.LearnOptions{MaxRules: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Both models must agree with the ground truth on fresh scenarios.
	test := cav.Generate(6, 120)
	flatAcc, err := flat.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, s := range test {
		ctx := s.EnvContext()
		ctx.Extend(cav.Background())
		ok, err := asgRes.Grammar.WithContext(ctx).Accepts([]string{"accept", s.Task})
		if err != nil {
			t.Fatal(err)
		}
		if ok == s.Accept {
			agree++
		}
	}
	asgAcc := float64(agree) / float64(len(test))
	if flatAcc < 0.95 || asgAcc < 0.95 {
		t.Errorf("accuracies: flat %.3f, asg %.3f", flatAcc, asgAcc)
	}
}
