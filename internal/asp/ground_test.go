package asp

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func mustGround(t *testing.T, src string) *GroundProgram {
	t.Helper()
	g, err := Ground(mustParse(t, src), GroundingOptions{})
	if err != nil {
		t.Fatalf("Ground(%q): %v", src, err)
	}
	return g
}

func TestGroundFactsOnly(t *testing.T) {
	g := mustGround(t, "p(a). p(b). q(1).")
	if g.NumAtoms() != 3 {
		t.Fatalf("got %d atoms, want 3", g.NumAtoms())
	}
	if len(g.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(g.Rules))
	}
	a, err := ParseAtom("p(a)")
	if err != nil {
		t.Fatal(err)
	}
	if g.AtomID(a) < 0 {
		t.Errorf("p(a) missing from ground program")
	}
}

func TestGroundSimpleJoin(t *testing.T) {
	g := mustGround(t, `
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)
	for _, want := range []string{"path(a,b)", "path(b,c)", "path(a,c)"} {
		a, err := ParseAtom(want)
		if err != nil {
			t.Fatal(err)
		}
		if g.AtomID(a) < 0 {
			t.Errorf("expected atom %s in domain", want)
		}
	}
	bad, _ := ParseAtom("path(c,a)")
	if g.AtomID(bad) >= 0 {
		t.Errorf("path(c,a) should not be derivable")
	}
}

func TestGroundArithmetic(t *testing.T) {
	g := mustGround(t, `
		num(0).
		num(N + 1) :- num(N), N < 3.
	`)
	for _, want := range []string{"num(0)", "num(1)", "num(2)", "num(3)"} {
		a, _ := ParseAtom(want)
		if g.AtomID(a) < 0 {
			t.Errorf("missing %s", want)
		}
	}
	over, _ := ParseAtom("num(4)")
	if g.AtomID(over) >= 0 {
		t.Errorf("num(4) should not be derived (guard N < 3)")
	}
}

func TestGroundEqualityBinder(t *testing.T) {
	g := mustGround(t, `
		base(2). base(5).
		doubled(Y) :- base(X), Y = X * 2.
	`)
	for _, want := range []string{"doubled(4)", "doubled(10)"} {
		a, _ := ParseAtom(want)
		if g.AtomID(a) < 0 {
			t.Errorf("missing %s", want)
		}
	}
}

func TestGroundNegativeLiteralDropsWhenUnderivable(t *testing.T) {
	g := mustGround(t, `
		p(a).
		q(X) :- p(X), not r(X).
	`)
	// r(a) is never derivable so "not r(a)" is removed; the rule becomes
	// q(a) :- p(a), hence no negative bodies anywhere.
	for _, r := range g.Rules {
		if len(r.NegBody) != 0 {
			t.Errorf("negative literal not dropped: %+v", r)
		}
	}
}

func TestGroundNegativeLiteralKeptWhenDerivable(t *testing.T) {
	g := mustGround(t, `
		p(a). r(a).
		q(X) :- p(X), not r(X).
	`)
	found := false
	for _, r := range g.Rules {
		if len(r.NegBody) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a kept negative literal in:\n%s", g)
	}
}

func TestGroundConstraints(t *testing.T) {
	g := mustGround(t, `
		p(a). p(b). q(a).
		:- p(X), q(X).
	`)
	constraints := 0
	for _, r := range g.Rules {
		if r.Head < 0 {
			constraints++
		}
	}
	if constraints != 1 {
		t.Errorf("got %d ground constraints, want 1 (only X=a satisfies q)", constraints)
	}
}

func TestGroundChoiceCompilation(t *testing.T) {
	g := mustGround(t, `
		node(a). node(b).
		{in(X)} :- node(X).
	`)
	for _, want := range []string{"in(a)", "in(b)"} {
		a, _ := ParseAtom(want)
		if g.AtomID(a) < 0 {
			t.Errorf("choice head %s missing from domain", want)
		}
	}
	// Compilation introduces complement atoms.
	comp := 0
	for _, a := range g.Atoms {
		if strings.HasPrefix(a.Predicate, "_choice_") {
			comp++
		}
	}
	if comp != 2 {
		t.Errorf("got %d complement atoms, want 2", comp)
	}
}

func TestSafetyErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "unbound head var", give: "p(X) :- q."},
		{name: "unbound negated var", give: "p :- not q(X)."},
		{name: "unbound comparison var", give: "p :- q, X > 2."},
		{name: "arith-only occurrence", give: "p(X) :- q(X + 1)."},
		{name: "circular equalities", give: "p(X) :- X = Y + 1, Y = X - 1."},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Ground(mustParse(t, tt.give), GroundingOptions{})
			var se *SafetyError
			if !errors.As(err, &se) {
				t.Errorf("Ground(%q) err = %v, want SafetyError", tt.give, err)
			}
		})
	}
}

func TestSafetyEqualityChains(t *testing.T) {
	// Y is bound through X via equality; safe.
	src := "p(Y) :- q(X), Y = X + 1."
	if _, err := Ground(mustParse(t, src), GroundingOptions{}); err != nil {
		t.Errorf("Ground(%q): %v", src, err)
	}
	// Chained: Z from Y from X.
	src = "p(Z) :- q(X), Y = X + 1, Z = Y * 2."
	if _, err := Ground(mustParse(t, src), GroundingOptions{}); err != nil {
		t.Errorf("Ground(%q): %v", src, err)
	}
}

func TestGroundMaxAtomsGuard(t *testing.T) {
	src := `
		num(0).
		num(N + 1) :- num(N), N < 100000.
	`
	_, err := Ground(mustParse(t, src), GroundingOptions{MaxAtoms: 100})
	if err == nil {
		t.Fatal("expected MaxAtoms error")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGroundCompoundTerms(t *testing.T) {
	g := mustGround(t, `
		holds(f(a, 1)).
		arg1(X) :- holds(f(X, Y)).
	`)
	a, _ := ParseAtom("arg1(a)")
	if g.AtomID(a) < 0 {
		t.Errorf("compound term matching failed:\n%s", g)
	}
}

func TestGroundRuleDeduplication(t *testing.T) {
	// The same ground instance can be produced through two derivations;
	// it must appear once.
	g := mustGround(t, `
		p(a). q(a). r(a).
		s(X) :- p(X), q(X).
		s(X) :- p(X), q(X).
	`)
	count := 0
	sa, _ := ParseAtom("s(a)")
	said := g.AtomID(sa)
	for _, r := range g.Rules {
		if r.Head == said {
			count++
		}
	}
	if count != 1 {
		t.Errorf("duplicate ground rules: got %d, want 1", count)
	}
}

func TestGroundStringOutput(t *testing.T) {
	g := mustGround(t, "p(a). q :- p(a), not r. r.")
	s := g.String()
	for _, want := range []string{"p(a).", "q :- p(a), not r.", "r."} {
		if !strings.Contains(s, want) {
			t.Errorf("ground program output missing %q:\n%s", want, s)
		}
	}
}

func TestGroundComparisonFilters(t *testing.T) {
	g := mustGround(t, `
		n(1). n(2). n(3). n(4).
		big(X) :- n(X), X >= 3.
		pair(X, Y) :- n(X), n(Y), X < Y.
	`)
	tests := []struct {
		atom string
		want bool
	}{
		{atom: "big(3)", want: true},
		{atom: "big(4)", want: true},
		{atom: "big(2)", want: false},
		{atom: "pair(1,2)", want: true},
		{atom: "pair(2,1)", want: false},
		{atom: "pair(1,4)", want: true},
		{atom: "pair(3,3)", want: false},
	}
	for _, tt := range tests {
		a, _ := ParseAtom(tt.atom)
		got := g.AtomID(a) >= 0
		if got != tt.want {
			t.Errorf("%s in domain = %v, want %v", tt.atom, got, tt.want)
		}
	}
}
