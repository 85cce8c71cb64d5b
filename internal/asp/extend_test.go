package asp

import (
	"errors"
	"fmt"
	"testing"
)

// A re-solve coverage check grounds background ∪ context ∪ H in one
// Ground call, where the hypothesis H is a handful of rules that may
// feed base rules, derive an atom the base negates, or make a base
// constraint fire. These tests ground base programs extended that way.

// extended parses base and appends the rules of each extension.
func extended(t *testing.T, base string, exts ...string) *Program {
	t.Helper()
	p := mustParse(t, base)
	for _, e := range exts {
		p.Extend(mustParse(t, e))
	}
	return p
}

// TestIncrementalExtendMatchesGround grounds each base program alone and
// extended, and checks the ground program against the definition and
// its answer sets against brute force.
func TestIncrementalExtendMatchesGround(t *testing.T) {
	cases := []struct {
		name string
		base string
		ext  string
	}{
		{
			name: "fact propagation through base chain",
			base: `p(X) :- q(X). q(1). q(2). r(X) :- p(X), s(X).`,
			ext:  `s(1). s(3).`,
		},
		{
			name: "extension rule over base facts",
			base: `edge(a,b). edge(b,c). edge(c,a).`,
			ext:  `path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).`,
		},
		{
			name: "negative literal leaves domain stable",
			base: `ok :- not bad. item(1). item(2).`,
			ext:  `good(X) :- item(X), not bad.`,
		},
		{
			name: "extension derives base negative atom (refinalize)",
			base: `decision(allow) :- not decision(deny). req(1).`,
			ext:  `decision(deny) :- req(1).`,
		},
		{
			name: "inclusion constraint flips once hypothesis fires",
			base: `req(1). :- not decision(deny).`,
			ext:  `decision(deny) :- req(1).`,
		},
		{
			name: "base constraint gains instances from new atoms",
			base: `p(1). p(2). :- p(X), q(X).`,
			ext:  `q(2).`,
		},
		{
			name: "choice rules on both sides",
			base: `node(1..2). {in(X)} :- node(X).`,
			ext:  `{pick(X)} :- in(X). :- pick(1), pick(2).`,
		},
		{
			name: "arithmetic and comparisons in extension",
			base: `n(1). n(2). n(3).`,
			ext:  `big(X) :- n(X), X > 1. double(Y) :- n(X), Y = X * 2.`,
		},
		{
			name: "extension feeds recursive base rule",
			base: `reach(X) :- start(X). reach(Y) :- reach(X), edge(X,Y). edge(a,b). edge(b,c).`,
			ext:  `start(a).`,
		},
		{
			name: "empty extension",
			base: `p :- not q. q :- not p.`,
			ext:  ``,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []*Program{extended(t, tc.base), extended(t, tc.base, tc.ext)} {
				g, err := Ground(p, GroundingOptions{})
				if err != nil {
					t.Fatalf("Ground(%s): %v", p, err)
				}
				if err := checkGrounding(p, g); err != nil {
					t.Fatalf("grounding of %s differs from the definition: %v", p, err)
				}
				models, err := SolveGround(g, SolveOptions{})
				if err != nil {
					t.Fatalf("SolveGround: %v", err)
				}
				if err := checkAnswerSets(g, models); err != nil {
					t.Fatalf("%s: %v", p, err)
				}
			}
		})
	}
}

// TestIncrementalAlternatingExtensions alternates one base program
// between extensions, as a search alternates hypotheses: pooled
// grounders and solvers serve every call, so each program's ground
// rules and answer sets must come out the same every round.
func TestIncrementalAlternatingExtensions(t *testing.T) {
	base := `p(X) :- q(X). q(1). q(2). :- p(X), veto(X).`
	progs := []*Program{
		extended(t, base, `veto(1).`),
		extended(t, base, `q(3). r(X) :- p(X).`),
		extended(t, base, `veto(1).`, `q(3). r(X) :- p(X).`),
		extended(t, base),
	}
	want := make([]string, len(progs))
	for round := 0; round < 3; round++ {
		for i, p := range progs {
			g, err := Ground(p, GroundingOptions{})
			if err != nil {
				t.Fatalf("round %d, program %d: %v", round, i, err)
			}
			models, err := SolveGround(g, SolveOptions{})
			if err != nil {
				t.Fatalf("round %d, program %d: %v", round, i, err)
			}
			got := fmt.Sprint(canonicalRules(g), modelSet(models))
			if round > 0 {
				if got != want[i] {
					t.Fatalf("round %d, program %d: got %s, want %s", round, i, got, want[i])
				}
				continue
			}
			if err := checkGrounding(p, g); err != nil {
				t.Fatalf("program %d: grounding differs from the definition: %v", i, err)
			}
			if err := checkAnswerSets(g, models); err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
			want[i] = got
		}
	}
}

// TestIncrementalUnsafeExtension checks that an unsafe rule added to a
// safe base fails grounding with a SafetyError naming its variable.
func TestIncrementalUnsafeExtension(t *testing.T) {
	_, err := Ground(extended(t, `q(1).`, `p(X) :- not q(X).`), GroundingOptions{})
	var se *SafetyError
	if !errors.As(err, &se) || fmt.Sprint(se.Vars) != "[X]" {
		t.Fatalf("got %v, want a SafetyError on X", err)
	}
}
