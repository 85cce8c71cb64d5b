package asp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func model(t *testing.T, atoms ...string) *AnswerSet {
	t.Helper()
	parsed := make([]Atom, len(atoms))
	for i, s := range atoms {
		a, err := ParseAtom(s)
		if err != nil {
			t.Fatalf("ParseAtom(%q): %v", s, err)
		}
		parsed[i] = a
	}
	return NewAnswerSet(parsed...)
}

func evalHeads(t *testing.T, ruleSrc string, m *AnswerSet) map[string]bool {
	t.Helper()
	r, err := ParseRule(ruleSrc)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", ruleSrc, err)
	}
	heads, err := EvalRule(r, m)
	if err != nil {
		t.Fatalf("EvalRule(%q): %v", ruleSrc, err)
	}
	out := make(map[string]bool, len(heads))
	for _, h := range heads {
		out[h.String()] = true
	}
	return out
}

func TestEvalRuleBasicJoin(t *testing.T) {
	m := model(t, "edge(a,b)", "edge(b,c)")
	got := evalHeads(t, "start(X) :- edge(X, Y).", m)
	if len(got) != 2 || !got["start(a)"] || !got["start(b)"] {
		t.Errorf("heads = %v", got)
	}
}

func TestEvalRuleNegationAndComparison(t *testing.T) {
	m := model(t, "n(1)", "n(2)", "n(3)", "blocked(2)")
	got := evalHeads(t, "ok(X) :- n(X), not blocked(X), X < 3.", m)
	if len(got) != 1 || !got["ok(1)"] {
		t.Errorf("heads = %v", got)
	}
}

func TestEvalRuleArithmeticBinder(t *testing.T) {
	m := model(t, "n(2)", "n(5)")
	got := evalHeads(t, "double(Y) :- n(X), Y = X * 2.", m)
	if len(got) != 2 || !got["double(4)"] || !got["double(10)"] {
		t.Errorf("heads = %v", got)
	}
}

// TestEvalRuleArithmeticArgument: a positive literal with an arithmetic
// argument waits until its variables are bound, whichever body position
// it takes, and the result agrees with solving the whole program.
func TestEvalRuleArithmeticArgument(t *testing.T) {
	facts := "a(1..3). b(1..2). bump(2,x). bump(3,y). t(4,u). t(6,w)."
	m := model(t, "a(1)", "a(2)", "a(3)", "b(1)", "b(2)", "bump(2,x)", "bump(3,y)", "t(4,u)", "t(6,w)")
	for _, tc := range []struct {
		rule string
		want []string
	}{
		{"p(Y) :- bump(X + 1, Y), a(X).", []string{"p(x)", "p(y)"}},
		{"p(Y) :- a(X), bump(X + 1, Y).", []string{"p(x)", "p(y)"}},
		// Deferred twice: t waits for both a(X) and b(Y).
		{"p(Z) :- t(X + Y, Z), a(X), b(Y).", []string{"p(u)"}},
	} {
		got := evalHeads(t, tc.rule, m)
		models := solveSrc(t, facts+" "+tc.rule, SolveOptions{})
		if len(models) != 1 {
			t.Fatalf("%s: solved %d models, want 1", tc.rule, len(models))
		}
		solved := models[0].AtomsOf("p")
		if len(got) != len(tc.want) || len(solved) != len(tc.want) {
			t.Errorf("%s: EvalRule %v, Solve %v, want %v", tc.rule, got, solved, tc.want)
			continue
		}
		for i, w := range tc.want {
			if !got[w] || solved[i].String() != w {
				t.Errorf("%s: EvalRule %v, Solve %v, want %v", tc.rule, got, solved, tc.want)
			}
		}
	}
}

func TestEvalRuleFact(t *testing.T) {
	got := evalHeads(t, "p(a).", model(t))
	if len(got) != 1 || !got["p(a)"] {
		t.Errorf("heads = %v", got)
	}
}

func TestEvalRuleConstraintMarker(t *testing.T) {
	m := model(t, "p", "q")
	got := evalHeads(t, ":- p, q.", m)
	if len(got) != 1 || !got["_violated"] {
		t.Errorf("violated constraint should yield marker: %v", got)
	}
	got = evalHeads(t, ":- p, not q.", m)
	if len(got) != 0 {
		t.Errorf("satisfied constraint should yield nothing: %v", got)
	}
}

func TestEvalRuleDeduplicatesHeads(t *testing.T) {
	m := model(t, "edge(a,b)", "edge(a,c)")
	got := evalHeads(t, "out(X) :- edge(X, Y).", m)
	if len(got) != 1 || !got["out(a)"] {
		t.Errorf("heads = %v", got)
	}
}

func TestEvalRuleErrors(t *testing.T) {
	r, err := ParseRule("p(X) :- q.")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalRule(r, model(t, "q")); err == nil {
		t.Error("unsafe rule should fail")
	}
	choice, err := ParseRule("{a; b}.")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalRule(choice, model(t)); err == nil {
		t.Error("choice rule should fail")
	}
}

// TestEvalRuleMatchesGrounding: EvalRule on the model of a definite
// program agrees with deriving through the full grounder+solver.
func TestEvalRuleMatchesGrounding(t *testing.T) {
	base := mustParse(t, `
		subject(role, dba). subject(age, 20).
		resource(type, report). action(id, read).
	`)
	models, err := Solve(base, SolveOptions{})
	if err != nil || len(models) != 1 {
		t.Fatalf("base solve: %v %d", err, len(models))
	}
	ruleSrc := "decision(permit) :- subject(role, dba), subject(age, V), V >= 18."
	heads := evalHeads(t, ruleSrc, models[0])

	full := mustParse(t, base.String()+ruleSrc)
	fullModels, err := Solve(full, SolveOptions{})
	if err != nil || len(fullModels) != 1 {
		t.Fatalf("full solve: %v %d", err, len(fullModels))
	}
	want, _ := ParseAtom("decision(permit)")
	if !fullModels[0].Contains(want) {
		t.Fatal("full program should derive the decision")
	}
	if len(heads) != 1 || !heads["decision(permit)"] {
		t.Errorf("EvalRule disagrees with solver: %v", heads)
	}
}

// TestEvalOrderIndependentOfInsertion: EvalRule and Evaluator.EvalPrepared
// return the same atoms in the same order, and the same first error, for
// answer sets built from the same atoms in different insertion orders.
// Each rule derives several heads or fails on more than one fact, so an
// index that followed insertion or map order would show.
func TestEvalOrderIndependentOfInsertion(t *testing.T) {
	var atoms []Atom
	for _, s := range []string{
		"p(3)", "p(1)", "p(a)", "p(0)", "p(f(b))", "p(b)", "p(12)", "p(2)",
		"q(1, x)", "q(2, y)", "q(1, z)", "q(b, x)", "blocked(2)", "flag",
	} {
		a, err := ParseAtom(s)
		if err != nil {
			t.Fatal(err)
		}
		atoms = append(atoms, a)
	}
	rules := []string{
		"s(X) :- p(X).",
		"t(X, Z) :- p(X), q(X, Z).",
		"u(Y) :- p(X), Y = X + 1.",                 // fails on a, b and f(b)
		"v(Y) :- q(X, Z), Y = 12 / X.",             // fails on b
		"w(Y) :- p(X), not blocked(X), Y = 6 / X.", // fails on 0, a, b, f(b)
		"decision(deny) :- p(X), flag.",
		":- p(X), X > 2.",
	}
	render := func(heads []Atom, err error) string {
		var sb strings.Builder
		for _, h := range heads {
			sb.WriteString(h.String() + " ")
		}
		return fmt.Sprintf("%s| %v", sb.String(), err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, src := range rules {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for round := 0; round < 20; round++ {
			order := slices.Clone(atoms)
			switch round {
			case 0:
			case 1:
				slices.Reverse(order)
			default:
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			m := NewAnswerSet(order...)
			got := render(EvalRule(r, m))
			if round == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: EvalRule gives %q for insertion order %v, %q for %v", src, got, order, want, atoms)
			}
			if got := render(NewEvaluator().EvalPrepared(NewModelIndex(m), r)); got != want {
				t.Fatalf("%s: EvalPrepared gives %q for insertion order %v, EvalRule %q", src, got, order, want)
			}
		}
	}
}
