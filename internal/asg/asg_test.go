package asg

import (
	"strings"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/cfg"
)

// anbncn is the flagship ASG from Law et al.: the non-context-free
// language a^n b^n c^n, obtained by annotating a CFG for a*b*c* with size
// counters and equality constraints.
const anbncn = `
start -> as bs cs {
    :- size(X)@1, size(Y)@2, X != Y.
    :- size(X)@2, size(Y)@3, X != Y.
}
as -> "a" as { size(X + 1) :- size(X)@2. }
as -> ε { size(0). }
bs -> "b" bs { size(X + 1) :- size(X)@2. }
bs -> ε { size(0). }
cs -> "c" cs { size(X + 1) :- size(X)@2. }
cs -> ε { size(0). }
`

func mustASG(t *testing.T, src string) *Grammar {
	t.Helper()
	g, err := ParseASG(src)
	if err != nil {
		t.Fatalf("ParseASG: %v", err)
	}
	return g
}

func toks(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Fields(s)
}

func TestParseASGStructure(t *testing.T) {
	g := mustASG(t, anbncn)
	if g.CFG.Start != "start" {
		t.Errorf("start = %q", g.CFG.Start)
	}
	if len(g.CFG.Productions) != 7 {
		t.Fatalf("got %d productions, want 7", len(g.CFG.Productions))
	}
	if g.Annotations[0] == nil || len(g.Annotations[0].Rules) != 2 {
		t.Errorf("start production should carry 2 constraints")
	}
	for id := 1; id <= 6; id++ {
		if g.Annotations[id] == nil || len(g.Annotations[id].Rules) != 1 {
			t.Errorf("production %d should carry 1 rule", id)
		}
	}
}

func TestAnBnCnMembership(t *testing.T) {
	g := mustASG(t, anbncn)
	tests := []struct {
		give string
		want bool
	}{
		{give: "", want: true}, // n = 0
		{give: "a b c", want: true},
		{give: "a a b b c c", want: true},
		{give: "a a a b b b c c c", want: true},
		{give: "a b", want: false},
		{give: "a b b c", want: false},
		{give: "a a b c c", want: false},
		{give: "b a c", want: false}, // not even in the CFG
		{give: "a c", want: false},
	}
	for _, tt := range tests {
		name := tt.give
		if name == "" {
			name = "(empty)"
		}
		t.Run(name, func(t *testing.T) {
			got, err := g.Accepts(toks(tt.give))
			if err != nil {
				t.Fatalf("Accepts: %v", err)
			}
			if got != tt.want {
				t.Errorf("Accepts(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestCFGLanguageIsSuperset(t *testing.T) {
	g := mustASG(t, anbncn)
	// "a b b c" is in the CFG language but not the ASG language.
	s := toks("a b b c")
	if !g.CFG.Accepts(s) {
		t.Fatal("CFG should accept a b b c")
	}
	ok, err := g.Accepts(s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("ASG should reject a b b c")
	}
}

func TestTreeProgramLocalization(t *testing.T) {
	g := mustASG(t, `
s -> "x" s { size(N + 1) :- size(N)@2. }
s -> ε { size(0). }
`)
	tree, err := g.CFG.Parse(toks("x x"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.TreeProgram(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Expect rules at traces [] and [2], plus fact at [2,2].
	s := prog.String()
	for _, want := range []string{"size@r", "size@r_2", "size@r_2_2"} {
		if !strings.Contains(s, want) {
			t.Errorf("tree program missing localized predicate %q:\n%s", want, s)
		}
	}
	models, err := asp.Solve(prog, asp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("got %d models, want 1", len(models))
	}
	// The root should carry size(2).
	rootSize := asp.NewAtom("size@r", asp.Integer{Value: 2})
	if !models[0].Contains(rootSize) {
		t.Errorf("root size missing; model = %s", models[0])
	}
}

// TestLocalizeMatchesTreeProgram: the instances a grammar's Localize
// returns are the rules that adding the rule to its production adds to
// G[PT], one per node applying the production: for G, for a G(C) that
// shares C (the rule reads odd where C's one copy is), and for a G(C)
// that copies C (a context rule is no fact).
func TestLocalizeMatchesTreeProgram(t *testing.T) {
	g := mustASG(t, anbncn)
	tree, err := g.CFG.Parse(toks("a a b b c c"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := asp.ParseAnnotated(":- size(X)@2, X > 0, not odd.", AnnotationHook)
	if err != nil {
		t.Fatal(err)
	}
	h := HypothesisRule{Rule: r.Rules[0], ProdID: 1} // as -> "a" as
	for _, tt := range []struct {
		name, context string
		shared        bool
	}{
		{name: "no context"},
		{name: "shared context", context: "odd. limit(3).", shared: true},
		{name: "copied context", context: "odd :- not even.", shared: false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			gc := g
			if tt.context != "" {
				ctx, err := asp.Parse(tt.context)
				if err != nil {
					t.Fatal(err)
				}
				gc = g.WithContext(ctx)
			}
			if got := gc.context != nil; got != tt.shared {
				t.Fatalf("context shared = %v, want %v", got, tt.shared)
			}
			if !gc.Localizes(h.Rule) {
				t.Fatal("Localizes rejects a rule that defines no context predicate")
			}
			base, err := gc.TreeProgram(tree)
			if err != nil {
				t.Fatal(err)
			}
			gh, err := gc.WithHypothesis([]HypothesisRule{h})
			if err != nil {
				t.Fatal(err)
			}
			full, err := gh.TreeProgram(tree)
			if err != nil {
				t.Fatal(err)
			}
			added := map[string]int{}
			for _, r := range full.Rules {
				added[r.String()]++
			}
			for _, r := range base.Rules {
				added[r.String()]--
			}
			inst := gc.Localize(h.Rule, h.ProdID, tree)
			if len(inst) != 2 {
				t.Fatalf("Localize returned %d instances, want 2 (two nodes apply the production)", len(inst))
			}
			for _, r := range inst {
				added[r.String()]--
			}
			for rule, n := range added {
				if n != 0 {
					t.Errorf("rule %s: %+d between G:H[PT] and G[PT] ∪ Localize", rule, n)
				}
			}
		})
	}
}

func TestDelocalizeAtom(t *testing.T) {
	a := asp.NewAtom("size@r_2", asp.Integer{Value: 1})
	plain, key := DelocalizeAtom(a)
	if plain.Predicate != "size" || key != "r_2" {
		t.Errorf("got %v / %q", plain, key)
	}
	b := asp.NewAtom("plain")
	plain2, key2 := DelocalizeAtom(b)
	if plain2.Predicate != "plain" || key2 != "" {
		t.Errorf("got %v / %q", plain2, key2)
	}
}

func TestWithContext(t *testing.T) {
	// A policy grammar where "fly" tasks are only valid when the context
	// says the weather is clear.
	g := mustASG(t, `
policy -> "fly" { :- not weather(clear). }
policy -> "drive"
`)
	clear := asp.NewProgram(asp.NewFact(asp.NewAtom("weather", asp.Constant{Name: "clear"})))
	storm := asp.NewProgram(asp.NewFact(asp.NewAtom("weather", asp.Constant{Name: "storm"})))

	tests := []struct {
		name string
		ctx  *asp.Program
		give string
		want bool
	}{
		{name: "fly in clear", ctx: clear, give: "fly", want: true},
		{name: "fly in storm", ctx: storm, give: "fly", want: false},
		{name: "drive in storm", ctx: storm, give: "drive", want: true},
		{name: "fly no context", ctx: asp.NewProgram(), give: "fly", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := g.WithContext(tt.ctx).Accepts(toks(tt.give))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
	// The original grammar must be unchanged by WithContext.
	ok, err := g.Accepts(toks("fly"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("original grammar mutated by WithContext")
	}
}

func TestWithHypothesis(t *testing.T) {
	g := mustASG(t, `
policy -> "fly"
policy -> "drive"
`)
	// Initially everything is valid.
	for _, s := range []string{"fly", "drive"} {
		ok, err := g.Accepts(toks(s))
		if err != nil || !ok {
			t.Fatalf("Accepts(%q) = %v, %v", s, ok, err)
		}
	}
	// Learn a constraint forbidding "fly" unless the context clears it.
	r, err := asp.ParseRule(":- not weather(clear).")
	if err != nil {
		t.Fatal(err)
	}
	h := []HypothesisRule{{Rule: r, ProdID: 0}}
	gh, err := g.WithHypothesis(h)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := gh.Accepts(toks("fly"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("hypothesis constraint not applied")
	}
	ok, err = gh.Accepts(toks("drive"))
	if err != nil || !ok {
		t.Errorf("drive should stay valid: %v, %v", ok, err)
	}
	// Out-of-range production id.
	if _, err := g.WithHypothesis([]HypothesisRule{{Rule: r, ProdID: 99}}); err == nil {
		t.Error("expected error for unknown production id")
	}
}

func TestHypothesisRuleCost(t *testing.T) {
	r1, _ := asp.ParseRule("ok.")
	r2, _ := asp.ParseRule("ok :- a, not b.")
	r3, _ := asp.ParseRule(":- a.")
	tests := []struct {
		rule asp.Rule
		want int
	}{
		{rule: r1, want: 1},
		{rule: r2, want: 3},
		{rule: r3, want: 1},
	}
	for _, tt := range tests {
		h := HypothesisRule{Rule: tt.rule}
		if got := h.Cost(); got != tt.want {
			t.Errorf("Cost(%s) = %d, want %d", DisplayRule(tt.rule), got, tt.want)
		}
	}
}

func TestGenerate(t *testing.T) {
	g := mustASG(t, `
policy -> "permit" who { :- who(bob)@2. }
policy -> "deny" who
who -> "alice" { who(alice). }
who -> "bob" { who(bob). }
`)
	out, err := g.Generate(GenerateOptions{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(out))
	for _, o := range out {
		got[o.Text()] = true
	}
	want := []string{"permit alice", "deny alice", "deny bob"}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %q in generated language %v", w, got)
		}
	}
	if got["permit bob"] {
		t.Error("permit bob should be filtered by the annotation")
	}
	if len(out) != 3 {
		t.Errorf("got %d strings, want 3", len(out))
	}
}

func TestGenerateMaxStrings(t *testing.T) {
	g := mustASG(t, `
s -> "x" | "x" s
`)
	out, err := g.Generate(GenerateOptions{MaxNodes: 20, MaxStrings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Errorf("got %d strings, want 4", len(out))
	}
}

func TestGenerateContextDependent(t *testing.T) {
	g := mustASG(t, `
policy -> "fly" { :- not weather(clear). }
policy -> "drive"
`)
	clear := asp.NewProgram(asp.NewFact(asp.NewAtom("weather", asp.Constant{Name: "clear"})))
	out, err := g.WithContext(clear).Generate(GenerateOptions{MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("clear context: got %d policies, want 2 (%v)", len(out), out)
	}
	out, err = g.Generate(GenerateOptions{MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Text() != "drive" {
		t.Errorf("no context: got %v, want [drive]", out)
	}
}

func TestAnnotationValidation(t *testing.T) {
	// @3 out of range for a 2-symbol production.
	_, err := ParseASG(`
s -> "x" s { size(N) :- size(N)@3. }
s -> ε { size(0). }
`)
	if err == nil {
		t.Error("expected out-of-range annotation error")
	}
	// @0 invalid.
	_, err = ParseASG(`
s -> "x" { ok :- size(N)@0. }
`)
	if err == nil {
		t.Error("expected @0 annotation error")
	}
}

func TestParseASGErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "missing arrow", give: "s \"x\""},
		{name: "unterminated block", give: "s -> \"x\" { ok."},
		{name: "bad asp", give: "s -> \"x\" { ok :- . }"},
		{name: "empty", give: "  # nothing\n"},
		{name: "undefined nonterminal", give: "s -> t\n"},
		{name: "unterminated terminal", give: "s -> \"x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseASG(tt.give); err == nil {
				t.Errorf("ParseASG(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestDisplayRule(t *testing.T) {
	g := mustASG(t, `
s -> "x" s { size(N + 1) :- size(N)@2, not stop. }
s -> ε { size(0). }
`)
	r := g.Annotations[0].Rules[0]
	got := DisplayRule(r)
	want := "size((N + 1)) :- size(N)@2, not stop."
	if got != want {
		t.Errorf("DisplayRule = %q, want %q", got, want)
	}
}

func TestASGString(t *testing.T) {
	g := mustASG(t, `
s -> "x" s { size(N + 1) :- size(N)@2. }
s -> ε { size(0). }
`)
	s := g.String()
	for _, want := range []string{`s -> "x" s {`, "size((N + 1)) :- size(N)@2.", "s -> ε"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestASGAlternationShorthand(t *testing.T) {
	g := mustASG(t, `
s -> "a" | "b" | "c" t
t -> "d"
`)
	if len(g.CFG.Productions) != 4 {
		t.Fatalf("got %d productions, want 4", len(g.CFG.Productions))
	}
	ok, err := g.Accepts([]string{"c", "d"})
	if err != nil || !ok {
		t.Errorf("Accepts(c d) = %v, %v", ok, err)
	}
}

func TestCloneIsolation(t *testing.T) {
	g := mustASG(t, `
s -> "x" { ok. }
`)
	c := g.Clone()
	r, _ := asp.ParseRule(":- ok.")
	c.Annotations[0].Add(r)
	if len(g.Annotations[0].Rules) != 1 {
		t.Error("Clone shares annotation storage with original")
	}
}

func TestNewValidations(t *testing.T) {
	base, err := cfg.ParseGrammar("s -> \"x\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(base, map[int]*asp.Program{5: asp.NewProgram()}); err == nil {
		t.Error("expected unknown production error")
	}
}

// TestChoiceAnnotation exercises ASP choice rules inside annotations: a
// node may optionally mark itself, and a constraint prunes unmarked
// trees.
func TestChoiceAnnotation(t *testing.T) {
	g := mustASG(t, `
s -> "x" {
    {mark}.
    :- not mark.
}
`)
	ok, err := g.Accepts([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("choice + constraint should still admit the marked model")
	}
}
