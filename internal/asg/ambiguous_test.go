package asg

import (
	"testing"

	"agenp/internal/asp"
)

// TestAmbiguousMembershipSomeTree checks the existential semantics of
// Definition 2: a string is in L(G) if at least one of its parse trees
// has a satisfiable program, even when other trees of the same string
// are contradictory.
func TestAmbiguousMembershipSomeTree(t *testing.T) {
	// Two productions derive the same string "x": one annotated with an
	// unsatisfiable program, one clean.
	g := mustASG(t, `
s -> bad | good
bad -> "x" { p. :- p. }
good -> "x"
`)
	ok, err := g.Accepts([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the good parse tree should admit the string")
	}
	// Remove the good route: now no tree is satisfiable.
	g2 := mustASG(t, `
s -> bad | bad2
bad -> "x" { p. :- p. }
bad2 -> "x" { q. :- q. }
`)
	ok, err = g2.Accepts([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("every parse tree is contradictory; string must be rejected")
	}
}

// TestAmbiguousGenerationDedup: generation suppresses duplicate strings
// from distinct trees but keeps the string if any tree validates.
func TestAmbiguousGenerationDedup(t *testing.T) {
	g := mustASG(t, `
s -> bad | good
bad -> "x" { p. :- p. }
good -> "x"
`)
	out, err := g.Generate(GenerateOptions{MaxNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Text() != "x" {
		t.Errorf("generated %v, want exactly [x]", out)
	}
}

// TestAnnotationsAcrossAmbiguousTreesDoNotLeak: the programs of distinct
// parse trees are solved independently; an atom derived in one tree must
// not satisfy a constraint of another.
func TestAnnotationsAcrossTreesIndependent(t *testing.T) {
	g := mustASG(t, `
s -> l r {
    :- not lmark@1.
    :- rmark@2.
}
l -> "x" { lmark. }
r -> "y" { rmark. }
`)
	// rmark IS derived at child 2, so the constraint fires: reject.
	ok, err := g.Accepts([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("rmark@2 constraint should reject the string")
	}
	// Localization check via the tree program itself.
	tree, err := g.CFG.Parse([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.TreeProgram(tree)
	if err != nil {
		t.Fatal(err)
	}
	models, err := asp.Solve(prog, asp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 0 {
		t.Errorf("tree program should be unsatisfiable, got %v", models)
	}
}
