package asp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// modelSet canonicalizes a list of answer sets for set comparison:
// each model prints its atoms sorted, and the models themselves are
// sorted, so two enumerations agree iff they found the same sets.
func modelSet(models []*AnswerSet) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.String()
	}
	sort.Strings(out)
	return out
}

// TestSolveEnginesNonTight pins the solver to the brute-force stable
// models (and to expected answer sets) on programs with positive loops,
// where the completion alone is too weak and the unfounded-set check
// must fire.
func TestSolveEnginesNonTight(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"p :- p.", []string{"{}"}},
		{"a :- b. b :- a.", []string{"{}"}},
		{"a :- b. b :- a. a :- not c. c :- not a.", []string{"{a, b}", "{c}"}},
		{"x :- y. y :- x. x :- not z. z :- not x.", []string{"{x, y}", "{z}"}},
		// Completion-satisfying but unfounded: {p, q} solves the
		// completion of the loop yet must be rejected.
		{"p :- q. q :- p. r :- not r, not p.", nil},
		{"a :- b. b :- a. a :- c. c :- not d. d :- not c.", []string{"{a, b, c}", "{d}"}},
		// Two independent loops, one externally supported.
		{"a :- b. b :- a. c :- d. d :- c. b :- e. e.", []string{"{a, b, e}"}},
		// Loop through a constraint-guarded choice.
		{"{g}. p :- q. q :- p. p :- g. :- not p.", []string{"{g, p, q}"}},
		{"p :- not p.", nil},
	}
	for _, tc := range cases {
		got := modelSet(solveChecked(t, tc.src))
		want := tc.want
		if want == nil {
			want = []string{}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: got %v, want %v", tc.src, got, want)
		}
	}
}

// TestSolveEnginesCorpusEquivalence runs the solver over the
// deterministic random-program corpus (non-tight programs included) and
// requires exactly the brute-force stable models, plus identical output
// across repeated runs (enumeration must be deterministic).
func TestSolveEnginesCorpusEquivalence(t *testing.T) {
	for seed := 0; seed < 600; seed++ {
		src := randomProgram(seed)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		g, err := Ground(prog, GroundingOptions{})
		if err != nil {
			t.Fatalf("seed %d: ground: %v", seed, err)
		}
		first, err := SolveGround(g, SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		again, err := SolveGround(g, SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: rerun: %v", seed, err)
		}
		if fmt.Sprint(first) != fmt.Sprint(again) {
			t.Fatalf("seed %d: enumeration not deterministic: %v then %v", seed, first, again)
		}
		if err := checkAnswerSets(g, first); err != nil {
			t.Fatalf("seed %d: %q: %v", seed, src, err)
		}
	}
}

// chainProgram builds a ground implication chain a0, a1 :- a0, ...,
// aN :- aN-1 directly (no parser), long enough that solving it passes
// through the propagation-loop context poll at least once.
func chainProgram(n int) *GroundProgram {
	g := &GroundProgram{}
	for i := 0; i < n; i++ {
		g.Atoms = append(g.Atoms, Atom{Predicate: fmt.Sprintf("a%d", i)})
	}
	g.Rules = append(g.Rules, GroundRule{Head: 0})
	for i := 1; i < n; i++ {
		g.Rules = append(g.Rules, GroundRule{Head: int32(i), PosBody: []int32{int32(i - 1)}})
	}
	return g
}

// cancelAfterFirst is a context that reports cancellation from its
// second Err call on, so a solve passes the check before search and is
// cancelled from inside it.
type cancelAfterFirst struct {
	context.Context
	calls int
}

func (c *cancelAfterFirst) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestCDNLContextCancel: a context cancelled during the solve aborts it
// from inside unit propagation (the chain forces >4096 propagations
// before any decision), and the same solver solves cleanly afterwards —
// a stale context error must not leak across runs.
func TestCDNLContextCancel(t *testing.T) {
	g := chainProgram(3 * (ctxCheckMask + 1))
	s := &cdnlSolver{}
	_, err := solveGroundScratch(g, SolveOptions{Context: &cancelAfterFirst{Context: context.Background()}}, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: got err %v, want context.Canceled", err)
	}
	// Reuse the same solver without a context: must fully succeed.
	models, err := solveGroundScratch(g, SolveOptions{}, s)
	if err != nil {
		t.Fatalf("reuse after cancel: %v", err)
	}
	if len(models) != 1 || models[0].Len() != len(g.Atoms) {
		t.Fatalf("reuse after cancel: got %d models, want the full chain", len(models))
	}
}

// TestSolveCancelledContext: a context cancelled before the call fails
// the solve with its error on every path — open programs that
// propagation alone decides, with or without a choice rule, a definite
// program the grounder decides, and plain-fact programs, the empty one
// included, which are not grounded.
func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{
		"c. b :- not c. a :- not b.",
		"{a}. :- a.",
		"a. b :- a.",
		"a. b.",
		"",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		models, err := Solve(prog, SolveOptions{Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, %v; want context.Canceled", src, modelSet(models), err)
		}
	}
}

// TestCDNLDecisionBudget: MaxDecisions aborts enumeration with
// ErrSearchBudget.
func TestCDNLDecisionBudget(t *testing.T) {
	prog, err := Parse("{a; b; c; d; e; f; g; h; i; j; k; l}.")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Ground(prog, GroundingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveGround(g, SolveOptions{MaxDecisions: 10}); !errors.Is(err, ErrSearchBudget) {
		t.Errorf("got err %v, want ErrSearchBudget", err)
	}
}

// TestCDNLMaxModels: the model budget truncates enumeration without
// error, and every returned model is stable.
func TestCDNLMaxModels(t *testing.T) {
	src := "a1 :- not b1. b1 :- not a1. a2 :- not b2. b2 :- not a2. a3 :- not b3. b3 :- not a3."
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Ground(prog, GroundingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := SolveGround(g, SolveOptions{MaxModels: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 5 {
		t.Fatalf("got %d models, want 5", len(models))
	}
	for _, m := range models {
		if !verifyStable(g, m) {
			t.Fatalf("model %s not stable", m)
		}
	}
}

// TestSolveScratchReuseNoLeak mirrors the checker leak tests: a long
// sequence of solves on one solver — large programs, cancelled solves,
// small programs — must neither leak goroutines nor let stale buffers
// corrupt later results.
func TestSolveScratchReuseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := &cdnlSolver{}
	big := chainProgram(2 * (ctxCheckMask + 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, err := solveGroundScratch(big, SolveOptions{Context: ctx}, s); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: want context.Canceled, got %v", i, err)
		}
		prog, err := Parse("a :- not b. b :- not a. c :- a. :- b.")
		if err != nil {
			t.Fatal(err)
		}
		g, err := Ground(prog, GroundingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		models, err := solveGroundScratch(g, SolveOptions{}, s)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got := fmt.Sprint(modelSet(models)); got != "[{a, c}]" {
			t.Fatalf("round %d: got %s, want [{a, c}]", i, got)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
