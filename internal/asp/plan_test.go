package asp

import (
	"strings"
	"testing"
)

// plansFor grounds the program with plan tracing and returns the
// compiled plans.
func plansFor(t *testing.T, src string, opts GroundingOptions) []PlanInfo {
	t.Helper()
	p := mustParse(t, src)
	_, plans, err := GroundWithPlans(p, opts)
	if err != nil {
		t.Fatalf("GroundWithPlans: %v", err)
	}
	return plans
}

// planWithDelta returns the plan for the given rule whose delta literal
// renders as delta ("" = the full-join plan).
func planWithDelta(t *testing.T, plans []PlanInfo, rule, delta string) PlanInfo {
	t.Helper()
	for _, pi := range plans {
		if pi.Rule == rule && pi.Delta == delta {
			return pi
		}
	}
	t.Fatalf("no plan for rule %q with delta %q; have %+v", rule, delta, plans)
	return PlanInfo{}
}

// TestPlanDeltaPinning: in a semi-naive plan the delta literal is
// scheduled first — its candidates are the round's delta, typically the
// smallest relation in the join.
func TestPlanDeltaPinning(t *testing.T) {
	plans := plansFor(t, "a(1..5). b(1..5). h(X,Y) :- a(X), b(Y).", GroundingOptions{})
	rule := "h(X,Y) :- a(X), b(Y)."
	for _, delta := range []string{"a(X)", "b(Y)"} {
		pi := planWithDelta(t, plans, rule, delta)
		if len(pi.Join) == 0 || pi.Join[0] != delta {
			t.Errorf("delta %s not pinned first: join order %v", delta, pi.Join)
		}
		if !strings.HasPrefix(pi.Steps[0], "delta-scan ") {
			t.Errorf("delta %s: first step %q is not a delta scan", delta, pi.Steps[0])
		}
	}
}

// TestPlanSmallestRelationFirst: with no delta and no bound arguments,
// the smaller relation is scanned first, and the second scan probes the
// argument index with the now-bound shared variable.
func TestPlanSmallestRelationFirst(t *testing.T) {
	plans := plansFor(t, "big(1..20). small(1). :- big(X), small(X).", GroundingOptions{})
	pi := planWithDelta(t, plans, ":- big(X), small(X).", "")
	if len(pi.Join) != 2 || pi.Join[0] != "small(X)" {
		t.Errorf("smallest relation not scanned first: join order %v", pi.Join)
	}
	found := false
	for _, s := range pi.Steps {
		if s == "scan big(X) [probe arg0]" {
			found = true
		}
	}
	if !found {
		t.Errorf("bound argument of big(X) not probed: steps %v", pi.Steps)
	}
}

// TestPlanBinderHoisting: a binder equality and a dependent comparison
// are hoisted directly after the scan that makes them evaluable.
func TestPlanBinderHoisting(t *testing.T) {
	plans := plansFor(t, "n(1..5). h(Y) :- n(X), Y = X + 1, Y > 0.", GroundingOptions{})
	pi := planWithDelta(t, plans, "h(Y) :- n(X), Y = (X + 1), Y > 0.", "n(X)")
	want := []string{"delta-scan n(X)", "bind Y := (X + 1)", "test Y > 0", "emit h(Y)"}
	if strings.Join(pi.Steps, "; ") != strings.Join(want, "; ") {
		t.Errorf("binder not hoisted:\n got %v\nwant %v", pi.Steps, want)
	}
}

// TestPlanComparisonEarlyFiltering: a comparison over already-bound
// variables runs before the next scan, pruning the cross product.
func TestPlanComparisonEarlyFiltering(t *testing.T) {
	plans := plansFor(t, "a(1..4). b(1..4). h(X,Y) :- a(X), b(Y), X < 3.", GroundingOptions{})
	pi := planWithDelta(t, plans, "h(X,Y) :- a(X), b(Y), X < 3.", "a(X)")
	testIdx, scanIdx := -1, -1
	for i, s := range pi.Steps {
		switch {
		case strings.HasPrefix(s, "test "):
			testIdx = i
		case strings.HasPrefix(s, "scan b(Y)"):
			scanIdx = i
		}
	}
	if testIdx == -1 || scanIdx == -1 || testIdx > scanIdx {
		t.Errorf("comparison not hoisted before second scan: steps %v", pi.Steps)
	}
}

// TestPlanArithArgGating: a positive literal with a variable inside an
// arithmetic argument cannot be scheduled until that variable is bound,
// even when it is textually first and delta-pinned.
func TestPlanArithArgGating(t *testing.T) {
	plans := plansFor(t, "a(1..3). bump(2,x). bump(3,y). p(Y) :- bump(X + 1, Y), a(X).", GroundingOptions{})
	rule := "p(Y) :- bump(X + 1, Y), a(X)."
	for _, pi := range plans {
		if pi.Rule != rule {
			continue
		}
		if len(pi.Join) != 2 || pi.Join[0] != "a(X)" {
			t.Errorf("delta %q: arith-gated literal scheduled before its binder: join order %v",
				pi.Delta, pi.Join)
		}
	}
}

// TestStuckRuleErrorDiagnostics: a rule the planner cannot schedule
// reports its source position, the unresolved literals, and their
// unbound variables. Ground itself rejects such rules in the safety
// check, so this compiles the plan directly (the error is the backstop
// for rules that reach the grounder without a safety pass).
func TestStuckRuleErrorDiagnostics(t *testing.T) {
	p := mustParse(t, "h :- q(X + 1), X < 2.")
	pr := newPlannedRule(p.Rules[0])
	g := newGrounder(GroundingOptions{})
	defer g.release()

	_, err := pr.compilePlan(-1, g)
	want := `grounder stuck at 1:1 on rule "h :- q((X + 1)), X < 2.": ` +
		`cannot schedule q((X + 1)) (unbound X); X < 2 (unbound X)`
	if err == nil || err.Error() != want {
		t.Errorf("stuck error:\ngot  %v\nwant %s", err, want)
	}
}

// TestPlanInfoString smoke-tests the asolve -plan rendering.
func TestPlanInfoString(t *testing.T) {
	plans := plansFor(t, "a(1). h(X) :- a(X).", GroundingOptions{})
	var sb strings.Builder
	for _, pi := range plans {
		sb.WriteString(pi.String())
	}
	out := sb.String()
	for _, want := range []string{"h(X) :- a(X).", "delta-scan a(X)", "emit h(X)"} {
		if !strings.Contains(out, want) {
			t.Errorf("PlanInfo rendering missing %q:\n%s", want, out)
		}
	}
}
