package asp

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func solveSrc(t *testing.T, src string, opts SolveOptions) []*AnswerSet {
	t.Helper()
	models, err := Solve(mustParse(t, src), opts)
	if err != nil {
		t.Fatalf("Solve(%q): %v", src, err)
	}
	return models
}

// modelStrings renders sorted model strings for comparison.
func modelStrings(models []*AnswerSet) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.String()
	}
	sort.Strings(out)
	return out
}

func TestSolveDefiniteProgram(t *testing.T) {
	models := solveSrc(t, `
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`, SolveOptions{})
	if len(models) != 1 {
		t.Fatalf("definite program must have exactly one answer set, got %d", len(models))
	}
	m := models[0]
	for _, want := range []string{"path(a,b)", "path(b,c)", "path(a,c)"} {
		a, _ := ParseAtom(want)
		if !m.Contains(a) {
			t.Errorf("answer set missing %s: %s", want, m)
		}
	}
	if m.Len() != 5 {
		t.Errorf("answer set size = %d, want 5 (2 edges + 3 paths)", m.Len())
	}
}

// TestSolvePlainFacts: a program whose every rule is a plain ground fact
// is answered without grounding, and Solve and HasAnswerSet return what
// the grounded path returns for it: a repeated fact once, the first of
// two facts with one key, compound terms, choice-compilation atoms
// hidden, and the empty program's one empty answer set. Both count as
// decided solves. A fact with a range, arithmetic or a variable is not
// plain and is grounded as before.
func TestSolvePlainFacts(t *testing.T) {
	progs := []*Program{NewProgram(NewFact(NewAtom("_choice_x")), NewFact(NewAtom("a")))} // the parser reads _choice_x as a variable
	for _, src := range []string{
		"",
		"a. b. a.",
		`p(a). p("a"). q(1, -2).`,
		"p(f(g(a), 1)). p(f(g(a), 1)). q(f(b)).",
	} {
		progs = append(progs, mustParse(t, src))
	}
	for _, prog := range progs {
		src := prog.String()
		if !plainFacts(prog) {
			t.Fatalf("%q: not a plain-fact program", src)
		}
		g, err := Ground(prog, GroundingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveGround(g, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		grounds, solves, definite := statGroundCalls.Value(), statSolveCalls.Value(), statSolveDefinite.Value()
		got, err := Solve(prog, SolveOptions{MaxModels: 2})
		if err != nil {
			t.Fatalf("%q: Solve: %v", src, err)
		}
		has, err := HasAnswerSet(prog)
		if err != nil || !has {
			t.Fatalf("%q: HasAnswerSet = %v, %v; want true", src, has, err)
		}
		if n := statGroundCalls.Value() - grounds; n != 0 {
			t.Errorf("%q: %d ground calls, want 0", src, n)
		}
		if n, d := statSolveCalls.Value()-solves, statSolveDefinite.Value()-definite; n != 2 || d != 2 {
			t.Errorf("%q: %d solve calls, %d decided; want 2 and 2", src, n, d)
		}
		if len(got) != 1 || len(want) != 1 || !reflect.DeepEqual(got[0].Atoms(), want[0].Atoms()) {
			t.Errorf("%q: Solve = %v, grounded path %v", src, modelSet(got), modelSet(want))
		}
	}
	for _, src := range []string{"p(1..2).", "p(1 + 1).", "p(X).", "a. b :- a.", "a. :- b.", "{a}."} {
		if plainFacts(mustParse(t, src)) {
			t.Errorf("%q: taken for a plain-fact program", src)
		}
	}
}

func TestSolveNegationTwoModels(t *testing.T) {
	// Classic even/odd: a :- not b. b :- not a.
	models := solveSrc(t, "a :- not b. b :- not a.", SolveOptions{})
	if len(models) != 2 {
		t.Fatalf("got %d models, want 2", len(models))
	}
	got := modelStrings(models)
	want := []string{"{a}", "{b}"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("models = %v, want %v", got, want)
		}
	}
}

func TestSolveNoModelConstraint(t *testing.T) {
	models := solveSrc(t, "a. :- a.", SolveOptions{})
	if len(models) != 0 {
		t.Fatalf("got %d models, want 0", len(models))
	}
}

func TestSolveUnsupportedLoopHasNoExtraModel(t *testing.T) {
	// p :- p has the single answer set {} (p is unfounded).
	models := solveSrc(t, "p :- p.", SolveOptions{})
	if len(models) != 1 {
		t.Fatalf("got %d models, want 1", len(models))
	}
	if models[0].Len() != 0 {
		t.Errorf("answer set should be empty, got %s", models[0])
	}
}

func TestSolveEvenLoopThroughNegation(t *testing.T) {
	// p :- not q. q :- not p. r :- p. r :- q.
	models := solveSrc(t, "p :- not q. q :- not p. r :- p. r :- q.", SolveOptions{})
	if len(models) != 2 {
		t.Fatalf("got %d models, want 2", len(models))
	}
	for _, m := range models {
		a, _ := ParseAtom("r")
		if !m.Contains(a) {
			t.Errorf("r should hold in every model, got %s", m)
		}
	}
}

func TestSolveOddLoopNoModel(t *testing.T) {
	// p :- not p. has no answer set.
	models := solveSrc(t, "p :- not p.", SolveOptions{})
	if len(models) != 0 {
		t.Fatalf("odd loop: got %d models, want 0", len(models))
	}
}

func TestSolveOddLoopEscaped(t *testing.T) {
	// p :- not p. p :- q. q. — p is forced by q, so {p, q} is stable.
	models := solveSrc(t, "p :- not p. p :- q. q.", SolveOptions{})
	if len(models) != 1 {
		t.Fatalf("got %d models, want 1", len(models))
	}
	p, _ := ParseAtom("p")
	q, _ := ParseAtom("q")
	if !models[0].Contains(p) || !models[0].Contains(q) {
		t.Errorf("model = %s, want {p, q}", models[0])
	}
}

func TestSolveChoiceRule(t *testing.T) {
	models := solveSrc(t, "node(a). node(b). {in(X)} :- node(X).", SolveOptions{})
	if len(models) != 4 {
		t.Fatalf("got %d models, want 4 (all subsets)", len(models))
	}
	// No internal atoms leak.
	for _, m := range models {
		for _, a := range m.Atoms() {
			if isInternalAtom(a) {
				t.Errorf("internal atom leaked: %s", a)
			}
		}
	}
}

func TestSolveChoiceWithConstraint(t *testing.T) {
	models := solveSrc(t, `
		node(a). node(b). node(c).
		{in(X)} :- node(X).
		:- in(X), in(Y), X != Y.
	`, SolveOptions{})
	// At most one node chosen: {} plus 3 singletons.
	if len(models) != 4 {
		t.Fatalf("got %d models, want 4", len(models))
	}
}

func TestSolveGraphColoring(t *testing.T) {
	src := `
		node(a). node(b). node(c).
		edge(a, b). edge(b, c). edge(a, c).
		col(r). col(g). col(bl).
		{color(N, C)} :- node(N), col(C).
		hascolor(N) :- color(N, C).
		:- node(N), not hascolor(N).
		:- color(N, C1), color(N, C2), C1 != C2.
		:- edge(X, Y), color(X, C), color(Y, C).
	`
	models := solveSrc(t, src, SolveOptions{})
	// Triangle with 3 colors: 3! = 6 proper colorings.
	if len(models) != 6 {
		t.Fatalf("got %d colorings, want 6", len(models))
	}
	for _, m := range models {
		if len(m.AtomsOf("color")) != 3 {
			t.Errorf("each model must color 3 nodes: %s", m)
		}
	}
}

func TestSolveMaxModels(t *testing.T) {
	models := solveSrc(t, "node(a). node(b). node(c). {in(X)} :- node(X).", SolveOptions{MaxModels: 3})
	if len(models) != 3 {
		t.Fatalf("got %d models, want 3 (limited)", len(models))
	}
}

func TestSolveDecisionBudget(t *testing.T) {
	src := "node(1). node(2). node(3). node(4). node(5). node(6). node(7). node(8). {in(X)} :- node(X)."
	_, err := Solve(mustParse(t, src), SolveOptions{MaxDecisions: 5})
	if !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("err = %v, want ErrSearchBudget", err)
	}
}

func TestSolveConstraintWithNegation(t *testing.T) {
	// :- not p. forces p to be derivable.
	models := solveSrc(t, "p :- not q. q :- not p. :- not p.", SolveOptions{})
	if len(models) != 1 {
		t.Fatalf("got %d models, want 1", len(models))
	}
	p, _ := ParseAtom("p")
	if !models[0].Contains(p) {
		t.Errorf("model should contain p: %s", models[0])
	}
}

func TestSolveStratifiedNegation(t *testing.T) {
	models := solveSrc(t, `
		bird(tweety). bird(sam). penguin(sam).
		flies(X) :- bird(X), not penguin(X).
	`, SolveOptions{})
	if len(models) != 1 {
		t.Fatalf("stratified program: got %d models, want 1", len(models))
	}
	ft, _ := ParseAtom("flies(tweety)")
	fs, _ := ParseAtom("flies(sam)")
	if !models[0].Contains(ft) {
		t.Errorf("tweety should fly")
	}
	if models[0].Contains(fs) {
		t.Errorf("sam should not fly")
	}
}

func TestSolveHamiltonianPathSmall(t *testing.T) {
	// 3-node line graph: exactly 2 Hamiltonian paths (a-b-c, c-b-a).
	src := `
		node(a). node(b). node(c).
		edge(a, b). edge(b, a). edge(b, c). edge(c, b).
		{in(X, Y)} :- edge(X, Y).
		seen(X) :- in(X, Y).
		seen(Y) :- in(X, Y).
		:- node(N), not seen(N).
		:- in(X, Y), in(X, Z), Y != Z.
		:- in(X, Z), in(Y, Z), X != Y.
		:- in(X, Y), in(Y, X).
		count3 :- in(A, B), in(B, C), A != C.
		:- not count3.
	`
	models := solveSrc(t, src, SolveOptions{})
	if len(models) != 2 {
		t.Fatalf("got %d Hamiltonian paths, want 2", len(models))
	}
}

func TestAnswerSetAccessors(t *testing.T) {
	a1, _ := ParseAtom("p(1)")
	a2, _ := ParseAtom("p(2)")
	b, _ := ParseAtom("q(x)")
	as := NewAnswerSet(a1, a2, b)
	if as.Len() != 3 {
		t.Fatalf("Len = %d", as.Len())
	}
	ps := as.AtomsOf("p")
	if len(ps) != 2 || ps[0].String() != "p(1)" || ps[1].String() != "p(2)" {
		t.Errorf("AtomsOf(p) = %v", ps)
	}
	if got := as.String(); got != "{p(1), p(2), q(x)}" {
		t.Errorf("String = %q", got)
	}
	missing, _ := ParseAtom("r")
	if as.Contains(missing) {
		t.Errorf("Contains(r) should be false")
	}
}

// TestStabilityProperty: every model returned by the solver is verified
// as stable by an independent reduct check, on randomized small programs.
func TestStabilityProperty(t *testing.T) {
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
		models, err := SolveGround(g, SolveOptions{})
		if err != nil {
			return false
		}
		for _, m := range models {
			if !verifyStable(g, m) {
				t.Logf("program:\n%s\nmodel %s is not stable", src, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomProgram builds a small propositional program from a seed using a
// deterministic generator over atoms a..e.
func randomProgram(seed int) string {
	atoms := []string{"a", "b", "c", "d", "e"}
	rng := seed
	next := func(n int) int {
		rng = (rng*1103515245 + 12345) & 0x7fffffff
		return rng % n
	}
	nRules := 2 + next(5)
	src := ""
	for i := 0; i < nRules; i++ {
		head := atoms[next(len(atoms))]
		nBody := next(3)
		rule := head
		if nBody > 0 {
			rule += " :- "
			for j := 0; j < nBody; j++ {
				if j > 0 {
					rule += ", "
				}
				if next(2) == 0 {
					rule += "not "
				}
				rule += atoms[next(len(atoms))]
			}
		}
		src += rule + ".\n"
	}
	return src
}

// verifyStable independently checks that m is a stable model of g: the
// least model of the reduct w.r.t. m equals m, and no constraint body is
// satisfied.
func verifyStable(g *GroundProgram, m *AnswerSet) bool {
	inModel := make([]bool, g.NumAtoms())
	for id, a := range g.Atoms {
		if m.Contains(a) {
			inModel[id] = true
		}
	}
	// Least model of reduct by naive iteration.
	derived := make([]bool, g.NumAtoms())
	changed := true
	for changed {
		changed = false
		for _, r := range g.Rules {
			if r.Head < 0 {
				continue
			}
			ok := true
			for _, a := range r.NegBody {
				if inModel[a] {
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
	for id := range inModel {
		if isInternalAtom(g.Atoms[id]) {
			// Internal atoms are hidden from the model; the reduct check
			// below cannot compare them.
			continue
		}
		if inModel[id] != derived[id] {
			return false
		}
	}
	// Constraints.
	for _, r := range g.Rules {
		if r.Head >= 0 {
			continue
		}
		sat := true
		for _, a := range r.PosBody {
			if !derived[a] {
				sat = false
				break
			}
		}
		for _, a := range r.NegBody {
			if derived[a] {
				sat = false
				break
			}
		}
		if sat {
			return false
		}
	}
	return true
}

func TestHasAnswerSet(t *testing.T) {
	ok, err := HasAnswerSet(mustParse(t, "a :- not b."))
	if err != nil || !ok {
		t.Errorf("HasAnswerSet = %v, %v; want true, nil", ok, err)
	}
	ok, err = HasAnswerSet(mustParse(t, "p :- not p."))
	if err != nil || ok {
		t.Errorf("HasAnswerSet(odd loop) = %v, %v; want false, nil", ok, err)
	}
}

func TestSolveGroundEmptyProgram(t *testing.T) {
	g, err := Ground(NewProgram(), GroundingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := SolveGround(g, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Len() != 0 {
		t.Errorf("empty program should have exactly the empty answer set, got %v", models)
	}
}
