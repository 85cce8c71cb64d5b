package agenp

import (
	"strings"
	"testing"

	"agenp/internal/core"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// oneSidedGrammar generates only permits: conflict-free on its own.
const oneSidedGrammar = `
policy -> "accept" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

func newVerifiedAMS(t *testing.T, grammar string) *AMS {
	t.Helper()
	model, err := core.ParseGPM(grammar)
	if err != nil {
		t.Fatal(err)
	}
	ams, err := New(Config{
		Name:           "verified",
		Model:          model,
		Context:        &StaticContext{},
		Interpreter:    &TokenInterpreter{},
		VerifyPolicies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ams
}

func TestVerifyGateAllowsCleanGeneration(t *testing.T) {
	ams := newVerifiedAMS(t, oneSidedGrammar)
	accepted, _, err := ams.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(accepted) != 2 {
		t.Fatalf("accepted %d", len(accepted))
	}
	rep := ams.LastVerify()
	if rep == nil || rep.HasErrors() {
		t.Fatalf("clean generation should verify: %v", rep)
	}
}

func TestVerifyGateVetoesConflictingGeneration(t *testing.T) {
	// The two-verb grammar generates accept overtake AND reject
	// overtake: a permit/deny conflict the gate must refuse to install.
	ams := newVerifiedAMS(t, drivingGrammar)
	_, _, err := ams.Regenerate()
	if err == nil {
		t.Fatal("conflicting generation installed")
	}
	if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("error does not explain the conflict veto: %v", err)
	}
	if ams.Repository().Len() != 0 {
		t.Fatalf("repository gained %d policies from a vetoed generation", ams.Repository().Len())
	}
}

func TestVerifyGateVetoesConflictingImport(t *testing.T) {
	ams := newVerifiedAMS(t, oneSidedGrammar)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	before := ams.Repository().Len()

	// A shared policy denying an already-permitted action introduces a
	// conflict. Bypass membership by vetting against a permissive PCP:
	// the shared policy IS in the language of a grammar with reject, so
	// use a model that admits it but whose own generation is one-sided.
	shared := policy.Policy{Tokens: []string{"reject", "overtake"}}
	err := ams.ImportShared(shared, "partner")
	if err == nil {
		t.Fatal("conflicting import accepted")
	}
	// The membership validator may reject first (reject ∉ grammar);
	// force the verify path with a policy in-language but conflicting.
	if ams.Repository().Len() != before {
		t.Fatalf("repository changed on rejected import")
	}
}

func TestVerifyGateImportConflictAfterMembership(t *testing.T) {
	// Grammar admits both verbs, but only "accept overtake" and "reject
	// park" contexts... simpler: import a policy that IS in the language
	// and conflicts with an installed one.
	ams := newVerifiedAMS(t, drivingGrammar)
	// Install a conflict-free subset directly (bypassing generation).
	ams.Repository().Put(policy.Policy{ID: "p1", Tokens: []string{"accept", "overtake"}})
	if err := ams.PDP().Refresh(); err != nil {
		t.Fatal(err)
	}
	err := ams.ImportShared(policy.Policy{Tokens: []string{"reject", "overtake"}}, "partner")
	if err == nil {
		t.Fatal("conflicting import accepted")
	}
	if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("error does not explain the conflict veto: %v", err)
	}
	// A non-conflicting import passes the gate.
	if err := ams.ImportShared(policy.Policy{Tokens: []string{"reject", "park"}}, "partner"); err != nil {
		t.Fatal(err)
	}
	// And the decision surface reflects only the accepted import.
	if d, _, _ := ams.Decide(actionReq("park")); d != xacml.DecisionDeny {
		t.Fatalf("park decided %v", d)
	}
	if d, _, _ := ams.Decide(actionReq("overtake")); d != xacml.DecisionPermit {
		t.Fatalf("overtake decided %v", d)
	}
}

func TestVerifySnapshotOnDemand(t *testing.T) {
	ams := newTestAMS(t, &StaticContext{})
	// VerifyPolicies off: the on-demand report still works, through the
	// Interpreter's policy-set view.
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	rep, err := ams.VerifySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// drivingGrammar generates accept+reject for both tasks: conflicts.
	if !rep.HasErrors() {
		t.Fatalf("expected conflicts in two-verb generation: %v", rep)
	}
	for _, f := range rep.Conflicts() {
		if !f.Verified {
			t.Fatalf("unverified conflict witness: %+v", f)
		}
	}
	if got := ams.LastVerify(); got != rep {
		t.Fatal("LastVerify should return the latest report")
	}
}

func TestTokenAdapterMatchesInterpreter(t *testing.T) {
	// The XACML view must agree with the interpreter's decisions.
	in := &TokenInterpreter{}
	policies := []policy.Policy{
		{ID: "a", Tokens: []string{"accept", "overtake"}},
		{ID: "b", Tokens: []string{"reject", "overtake"}},
		{ID: "c", Tokens: []string{"accept", "share", "images"}},
	}
	ps, err := in.PolicySetOf(policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"overtake", "park", "share images"} {
		req := actionReq(id)
		want, _ := in.Decide(policies, req)
		got, _ := ps.EvaluateWinner(req)
		if want == xacml.DecisionNotApplicable {
			// The set returns NotApplicable too; both mean "no policy".
			if got != xacml.DecisionNotApplicable {
				t.Fatalf("%s: interpreter %v, set %v", id, want, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("%s: interpreter %v, set %v", id, want, got)
		}
	}
}
