package asp

import (
	"fmt"
	"testing"
	"testing/quick"
)

// bruteForceAnswerSets enumerates every subset of the ground atoms and
// keeps exactly the stable models — the definition, with no search
// cleverness: a subset is stable when it equals the least model of its
// Gelfond–Lifschitz reduct and violates no constraint. Only usable for
// tiny programs.
func bruteForceAnswerSets(g *GroundProgram) []map[int]bool {
	n := g.NumAtoms()
	var out []map[int]bool
	for mask := 0; mask < 1<<n; mask++ {
		inSet := func(a int32) bool { return mask&(1<<a) != 0 }
		// Least model of the reduct.
		derived := make([]bool, n)
		changed := true
		for changed {
			changed = false
			for _, r := range g.Rules {
				if r.Head < 0 {
					continue
				}
				ok := true
				for _, a := range r.NegBody {
					if inSet(a) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for _, a := range r.PosBody {
					if !derived[a] {
						ok = false
						break
					}
				}
				if ok && !derived[r.Head] {
					derived[r.Head] = true
					changed = true
				}
			}
		}
		stable := true
		for a := int32(0); a < int32(n); a++ {
			if derived[a] != inSet(a) {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		// Constraints.
		for _, r := range g.Rules {
			if r.Head >= 0 {
				continue
			}
			sat := true
			for _, a := range r.PosBody {
				if !inSet(a) {
					sat = false
					break
				}
			}
			for _, a := range r.NegBody {
				if inSet(a) {
					sat = false
					break
				}
			}
			if sat {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		m := make(map[int]bool)
		for a := int32(0); a < int32(n); a++ {
			if inSet(a) {
				m[int(a)] = true
			}
		}
		out = append(out, m)
	}
	return out
}

// bruteForceMaxAtoms bounds the programs checkAnswerSets accepts: the
// brute force visits 2^n subsets.
const bruteForceMaxAtoms = 14

// checkAnswerSets compares a solver's enumeration of g with the stable
// models found by brute force, projected onto the visible atoms (hidden
// choice-complement atoms included in the search, as the definition
// requires). Enumeration order is free, but each answer set must appear
// exactly once.
func checkAnswerSets(g *GroundProgram, got []*AnswerSet) error {
	if g.NumAtoms() > bruteForceMaxAtoms {
		return fmt.Errorf("%d ground atoms exceed the brute-force limit %d", g.NumAtoms(), bruteForceMaxAtoms)
	}
	var want []*AnswerSet
	for _, m := range bruteForceAnswerSets(g) {
		var atoms []Atom
		for id, a := range g.Atoms {
			if m[id] && !isInternalAtom(a) {
				atoms = append(atoms, a)
			}
		}
		want = append(want, NewAnswerSet(atoms...))
	}
	if gs, ws := fmt.Sprint(modelSet(got)), fmt.Sprint(modelSet(want)); gs != ws {
		return fmt.Errorf("solver found %s, stable models are %s", gs, ws)
	}
	return nil
}

// solveChecked grounds and solves src and fails the test unless the
// enumeration matches the brute-force stable models.
func solveChecked(t *testing.T, src string) []*AnswerSet {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	g, err := Ground(prog, GroundingOptions{})
	if err != nil {
		t.Fatalf("ground %q: %v", src, err)
	}
	models, err := SolveGround(g, SolveOptions{})
	if err != nil {
		t.Fatalf("solve %q: %v", src, err)
	}
	if err := checkAnswerSets(g, models); err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return models
}

// TestAnswerSetCheckerRejectsWrongModels: the brute-force checker
// accepts the solver's enumeration and rejects it with one answer set
// missing or one non-stable set added.
func TestAnswerSetCheckerRejectsWrongModels(t *testing.T) {
	g := mustGround(t, "a :- not b. b :- not a. c. {d}.")
	models, err := SolveGround(g, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswerSets(g, models); err != nil {
		t.Fatalf("checker rejects the solver's enumeration: %v", err)
	}
	for i := range models {
		missing := append(append([]*AnswerSet{}, models[:i]...), models[i+1:]...)
		if checkAnswerSets(g, missing) == nil {
			t.Errorf("checker accepts the enumeration without %s", models[i])
		}
	}
	a, _ := ParseAtom("a")
	b, _ := ParseAtom("b")
	c, _ := ParseAtom("c")
	if checkAnswerSets(g, append(models, NewAnswerSet(a, b, c))) == nil {
		t.Error("checker accepts the non-stable set {a, b, c}")
	}
}

// TestSolverSoundAndComplete compares the solver against brute-force
// enumeration on randomized small propositional programs (soundness AND
// completeness, unlike the stability check which is soundness only).
func TestSolverSoundAndComplete(t *testing.T) {
	f := func(seed uint16) bool {
		src := randomProgram(int(seed))
		prog, err := Parse(src)
		if err != nil {
			return false
		}
		g, err := Ground(prog, GroundingOptions{})
		if err != nil {
			return false
		}
		got, err := SolveGround(g, SolveOptions{})
		if err != nil {
			return false
		}
		if err := checkAnswerSets(g, got); err != nil {
			t.Logf("program:\n%s\n%v", src, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSolverSoundAndCompleteWithConstraints repeats the comparison on
// programs extended with random constraints.
func TestSolverSoundAndCompleteWithConstraints(t *testing.T) {
	f := func(seed uint16) bool {
		base := randomProgram(int(seed))
		// Derive a constraint deterministically from the seed.
		atoms := []string{"a", "b", "c"}
		c1 := atoms[int(seed)%3]
		c2 := atoms[int(seed/3)%3]
		src := base + ":- " + c1 + ", not " + c2 + ".\n"
		prog, err := Parse(src)
		if err != nil {
			return false
		}
		g, err := Ground(prog, GroundingOptions{})
		if err != nil {
			return false
		}
		got, err := SolveGround(g, SolveOptions{})
		if err != nil {
			return false
		}
		if err := checkAnswerSets(g, got); err != nil {
			t.Logf("program:\n%s\n%v", src, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
