package asp

import (
	"reflect"
	"testing"
)

// FuzzParse checks the ASP parser never panics and that successful
// parses are print/re-parse stable.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(a).",
		"p(X) :- q(X), not r(X).",
		":- a, b.",
		"{a; b} :- c.",
		"n(1..4).",
		"p(Y) :- q(X), Y = X * 2 + 1.",
		`s("quoted \" string").`,
		"p(f(g(a), 1)).",
		"% comment\np.",
		"p :- 1 < 2.",
		"p(-3).",
		"broken(",
		":-:-.",
		"..",
		"p@q.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %q -> %q: %v", src, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("print not stable: %q vs %q", printed, again.String())
		}
	})
}

// FuzzSolveSmall checks grounding+solving never panics on parseable
// input (errors are fine) and that every returned model verifies stable,
// also when MaxModels truncates the enumeration.
func FuzzSolveSmall(f *testing.F) {
	seeds := []string{
		"a :- not b. b :- not a.",
		"p :- not p.",
		"{x; y}. :- x, y.",
		"n(1..3). e(X) :- n(X), X \\ 2 = 0.",
		"p(X) :- q(X). q(a).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 200 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		g, err := Ground(prog, GroundingOptions{MaxAtoms: 200})
		if err != nil {
			return
		}
		// verifyStable reconstructs the reduct from the visible model, so
		// it cannot check programs with hidden choice-complement atoms;
		// FuzzSolveDifferential's brute force covers those.
		if g.NumAtoms() > 24 || hasInternal(g) {
			return
		}
		models, err := SolveGround(g, SolveOptions{MaxModels: 8, MaxDecisions: 100_000})
		if err != nil {
			return
		}
		for _, m := range models {
			if !verifyStable(g, m) {
				t.Fatalf("unstable model %s for %q", m, src)
			}
		}
	})
}

// FuzzSolveDifferential checks every parseable program of at most
// bruteForceMaxAtoms ground atoms against the definition: the solver
// must enumerate exactly the brute-force stable models, hidden
// choice-complement atoms included, and Solve, which answers a
// plain-fact program without grounding it, must return the same models.
// Seeds include non-tight (positive-loop) programs, where the
// unfounded-set check must reject completion models.
func FuzzSolveDifferential(f *testing.F) {
	seeds := []string{
		"a :- not b. b :- not a.",
		"p :- not p.",
		"{x; y}. :- x, y.",
		"n(1..3). e(X) :- n(X), X \\ 2 = 0.",
		"p(X) :- q(X). q(a).",
		// Non-tight: positive loops, externally supported or not.
		"p :- p.",
		"a :- b. b :- a.",
		"a :- b. b :- a. a :- not c. c :- not a.",
		"x :- y. y :- x. x :- not z. z :- not x.",
		"p :- q. q :- p. r :- not r, not p.",
		"a :- b. b :- c. c :- a. b :- not d. d :- not b.",
		"{g}. p :- q. q :- p. p :- g. :- not p.",
		// Definite once grounded: negative literals over atoms outside
		// the domain drop, and a constraint fires or not.
		"q(a). p(X) :- q(X), not r(X). :- p(a), not s.",
		"a. b :- a, not c. :- b, not a.",
		// Plain facts, which Solve answers without grounding.
		"",
		"a. b. a.",
		`p(a). p("a"). q(f(g(1), -2)).`,
		"p(1). p(2). q.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 200 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		g, err := Ground(prog, GroundingOptions{MaxAtoms: 200})
		if err != nil {
			return
		}
		if g.NumAtoms() > bruteForceMaxAtoms {
			return
		}
		// No MaxModels: completeness needs the whole enumeration. The
		// decision budget guards runaway inputs; budget aborts are
		// skipped, not compared.
		models, err := SolveGround(g, SolveOptions{MaxDecisions: 200_000})
		if err != nil {
			return
		}
		if err := checkAnswerSets(g, models); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// Solve answers plain-fact programs without grounding; it must
		// return the grounded path's models.
		if solved, err := Solve(prog, SolveOptions{MaxDecisions: 200_000}); err != nil {
			t.Fatalf("%q: Solve: %v", src, err)
		} else if got, want := modelSet(solved), modelSet(models); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: Solve = %v, SolveGround = %v", src, got, want)
		}
		// HasAnswerSet answers decided programs without a model.
		has, err := HasAnswerSet(prog)
		if err != nil {
			t.Fatalf("%q: HasAnswerSet: %v", src, err)
		}
		if want := len(bruteForceAnswerSets(g)) > 0; has != want {
			t.Fatalf("%q: HasAnswerSet = %v, want %v", src, has, want)
		}
	})
}

func hasInternal(g *GroundProgram) bool {
	for _, a := range g.Atoms {
		if isInternalAtom(a) {
			return true
		}
	}
	return false
}
