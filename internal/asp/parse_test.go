package asp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseFacts(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string
	}{
		{name: "propositional", give: "p.", want: "p."},
		{name: "unary", give: "p(a).", want: "p(a)."},
		{name: "integer arg", give: "p(3).", want: "p(3)."},
		{name: "negative integer arg", give: "p(-3).", want: "p(-3)."},
		{name: "multiple args", give: "edge(a, b).", want: "edge(a,b)."},
		{name: "compound arg", give: "p(f(a, 1)).", want: "p(f(a,1))."},
		{name: "nested compound", give: "p(f(g(x))).", want: "p(f(g(x)))."},
		{name: "quoted string", give: `token("permit").`, want: `token("permit").`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := Parse(tt.give)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.give, err)
			}
			if len(prog.Rules) != 1 {
				t.Fatalf("got %d rules, want 1", len(prog.Rules))
			}
			if got := prog.Rules[0].String(); got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseRules(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string
	}{
		{
			name: "positive body",
			give: "p(X) :- q(X).",
			want: "p(X) :- q(X).",
		},
		{
			name: "negation as failure",
			give: "p(X) :- q(X), not r(X).",
			want: "p(X) :- q(X), not r(X).",
		},
		{
			name: "constraint",
			give: ":- p, q.",
			want: ":- p, q.",
		},
		{
			name: "comparison",
			give: "p(X) :- q(X), X > 3.",
			want: "p(X) :- q(X), X > 3.",
		},
		{
			name: "arithmetic in head",
			give: "p(X + 1) :- q(X).",
			want: "p((X + 1)) :- q(X).",
		},
		{
			name: "equality binder",
			give: "p(Y) :- q(X), Y = X * 2.",
			want: "p(Y) :- q(X), Y = (X * 2).",
		},
		{
			name: "choice rule",
			give: "{a; b} :- c.",
			want: "{a; b} :- c.",
		},
		{
			name: "bare choice",
			give: "{a; b; c}.",
			want: "{a; b; c}.",
		},
		{
			name: "not equal",
			give: ":- p(X), p(Y), X != Y.",
			want: ":- p(X), p(Y), X != Y.",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := Parse(tt.give)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.give, err)
			}
			if len(prog.Rules) != 1 {
				t.Fatalf("got %d rules, want 1", len(prog.Rules))
			}
			if got := prog.Rules[0].String(); got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseProgramMultipleRulesAndComments(t *testing.T) {
	src := `
% transitive closure
edge(a, b). edge(b, c).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
:- path(a, a). % no cycles through a
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Rules) != 5 {
		t.Fatalf("got %d rules, want 5", len(prog.Rules))
	}
	if !prog.Rules[0].IsFact() {
		t.Errorf("rule 0 should be a fact")
	}
	if !prog.Rules[4].IsConstraint() {
		t.Errorf("rule 4 should be a constraint")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "missing dot", give: "p(a)"},
		{name: "unterminated string", give: `p("abc.`},
		{name: "stray colon", give: "p : q."},
		{name: "unexpected bang", give: "p ! q."},
		{name: "empty parens", give: "p()."},
		{name: "unclosed paren", give: "p(a."},
		{name: "annotation outside ASG mode", give: "p(a)@1 :- q."},
		{name: "unexpected char", give: "p(a) & q."},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.give); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestParseAtomAndTerm(t *testing.T) {
	a, err := ParseAtom("permit(Subject, read)")
	if err != nil {
		t.Fatalf("ParseAtom: %v", err)
	}
	if a.Predicate != "permit" || len(a.Args) != 2 {
		t.Fatalf("unexpected atom %v", a)
	}
	if a.Ground() {
		t.Errorf("atom with variable should not be ground")
	}

	term, err := ParseTerm("f(a, g(X))")
	if err != nil {
		t.Fatalf("ParseTerm: %v", err)
	}
	c, ok := term.(Compound)
	if !ok || c.Functor != "f" {
		t.Fatalf("unexpected term %v", term)
	}

	if _, err := ParseAtom("p(a) q"); err == nil {
		t.Errorf("trailing input should fail")
	}
	if _, err := ParseTerm("f(a,"); err == nil {
		t.Errorf("truncated term should fail")
	}
}

func TestParseAnnotatedMangling(t *testing.T) {
	hook := func(a Atom, ann int, has bool) Atom {
		if has {
			a.Predicate = a.Predicate + "_at_" + string(rune('0'+ann))
		}
		return a
	}
	prog, err := ParseAnnotated("ok :- size(X)@1, X > 2.", hook)
	if err != nil {
		t.Fatalf("ParseAnnotated: %v", err)
	}
	body := prog.Rules[0].Body
	if body[0].Atom.Predicate != "size_at_1" {
		t.Errorf("annotation hook not applied: %v", body[0])
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any parsed program, printed and re-parsed, prints identically.
	sources := []string{
		"p(a). q(b). r(X) :- p(X), not q(X).",
		"path(X,Z) :- edge(X,Y), path(Y,Z), X != Z.",
		"{in(X); out(X)} :- node(X).\n:- in(X), out(X).",
		"size(N + 1) :- size(N), N < 10.\nsize(0).",
		`decision("permit") :- role(dba), not blocked.`,
	}
	for _, src := range sources {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := p1.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q: %v", printed, err)
		}
		if p2.String() != printed {
			t.Errorf("round trip mismatch:\nfirst:  %q\nsecond: %q", printed, p2.String())
		}
	}
}

func TestLexerLineNumbers(t *testing.T) {
	_, err := Parse("p(a).\nq(b).\nr :- .")
	if err == nil {
		t.Fatal("want error")
	}
	var pe *ParseError
	if !errorsAs(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func errorsAs(err error, target **ParseError) bool {
	for err != nil {
		if pe, ok := err.(*ParseError); ok {
			*target = pe
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestTermKeyInjective checks via quick that distinct generated terms get
// distinct keys and equal terms equal keys.
func TestTermKeyInjective(t *testing.T) {
	gen := func(seed uint8, depth uint8) Term {
		return genTerm(int(seed), int(depth)%3)
	}
	f := func(s1, d1, s2, d2 uint8) bool {
		t1 := gen(s1, d1)
		t2 := gen(s2, d2)
		k1, k2 := TermKey(t1), TermKey(t2)
		if t1.String() == t2.String() {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTermKeyLiterals pins one key per term kind, and an atom key, so
// the one encoder cannot drift from the keys stored in answer sets and
// grounder tables.
func TestTermKeyLiterals(t *testing.T) {
	one, two := Integer{Value: 1}, Integer{Value: -2}
	cases := []struct {
		term Term
		want string
	}{
		{Constant{Name: "alice"}, "calice"},
		{Constant{Name: "a b", Quoted: true}, "ca b"},
		{two, "i-2"},
		{Variable{Name: "X"}, "vX"},
		{Compound{Functor: "f", Args: []Term{Constant{Name: "a"}, one}}, "ff(ca,i1,)"},
		{Arith{Op: OpAdd, L: Variable{Name: "X"}, R: one}, "a+vXi1"},
		{Range{Lo: one, Hi: Integer{Value: 3}}, "ri1..i3"},
	}
	for _, c := range cases {
		if got := TermKey(c.term); got != c.want {
			t.Errorf("TermKey(%s) = %q, want %q", c.term, got, c.want)
		}
		if got := string(appendTermKey([]byte("x"), c.term)); got != "x"+c.want {
			t.Errorf("appendTermKey(x, %s) = %q, want %q", c.term, got, "x"+c.want)
		}
	}
	a := NewAtom("p", Constant{Name: "a"}, Compound{Functor: "g", Args: []Term{two}})
	if got, want := a.Key(), "p/ca;fg(i-2,);"; got != want {
		t.Errorf("Atom.Key = %q, want %q", got, want)
	}
	if got := string(appendAtomKey(nil, a)); got != a.Key() {
		t.Errorf("appendAtomKey = %q, Atom.Key %q", got, a.Key())
	}
	if got := string(a.AppendKey([]byte("x"))); got != "x"+a.Key() {
		t.Errorf("Atom.AppendKey(x) = %q, want %q", got, "x"+a.Key())
	}
}

func genTerm(seed, depth int) Term {
	if depth <= 0 {
		switch seed % 3 {
		case 0:
			return Integer{Value: seed % 7}
		case 1:
			return Constant{Name: "c" + string(rune('a'+seed%5))}
		default:
			return Constant{Name: "d" + string(rune('a'+seed%4))}
		}
	}
	return Compound{
		Functor: "f" + string(rune('a'+seed%3)),
		Args:    []Term{genTerm(seed/2, depth-1), genTerm(seed/3, depth-1)},
	}
}

func TestAtomSubstituteAndVariables(t *testing.T) {
	a, err := ParseAtom("p(X, f(Y), a)")
	if err != nil {
		t.Fatal(err)
	}
	vars := a.Variables()
	if len(vars) != 2 {
		t.Fatalf("got vars %v, want X and Y", vars)
	}
	b := Binding{"X": Integer{Value: 1}, "Y": Constant{Name: "z"}}
	got := a.Substitute(b)
	if got.String() != "p(1,f(z),a)" {
		t.Errorf("substitute got %q", got.String())
	}
	if !got.Ground() {
		t.Errorf("substituted atom should be ground")
	}
	// Original unchanged.
	if a.Ground() {
		t.Errorf("original mutated by Substitute")
	}
}

func TestEvalCmp(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{give: "1 < 2", want: true},
		{give: "2 < 1", want: false},
		{give: "2 <= 2", want: true},
		{give: "3 > 2", want: true},
		{give: "3 >= 4", want: false},
		{give: "a = a", want: true},
		{give: "a != b", want: true},
		{give: "1 + 2 = 3", want: true},
		{give: "2 * 3 > 5", want: true},
		{give: "7 \\ 3 = 1", want: true},
		{give: "7 / 2 = 3", want: true},
		{give: "a < b", want: true}, // lexicographic on constants
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			r, err := ParseRule(":- " + tt.give + ".")
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got, err := EvalCmp(r.Body[0])
			if err != nil {
				t.Fatalf("EvalCmp: %v", err)
			}
			if got != tt.want {
				t.Errorf("EvalCmp(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestEvalArithErrors(t *testing.T) {
	if _, err := EvalArith(Arith{Op: OpDiv, L: Integer{Value: 1}, R: Integer{Value: 0}}); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := EvalArith(Arith{Op: OpAdd, L: Constant{Name: "a"}, R: Integer{Value: 1}}); err == nil {
		t.Error("arithmetic over constants should fail")
	}
	if _, err := EvalArith(Arith{Op: OpMod, L: Integer{Value: 5}, R: Integer{Value: 0}}); err == nil {
		t.Error("modulo by zero should fail")
	}
}

func TestProgramPredicates(t *testing.T) {
	prog, err := Parse("p(X) :- q(X, Y), not r(Y).\n{s}.")
	if err != nil {
		t.Fatal(err)
	}
	preds := prog.Predicates()
	for _, want := range []string{"p/1", "q/2", "r/1", "s/0"} {
		if _, ok := preds[want]; !ok {
			t.Errorf("missing predicate %s in %v", want, preds)
		}
	}
}

func TestProgramCloneIsolation(t *testing.T) {
	p, err := Parse("a. b.")
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	q.Add(Rule{Head: &Atom{Predicate: "c"}})
	if len(p.Rules) != 2 {
		t.Errorf("Clone not isolated: original has %d rules", len(p.Rules))
	}
	if len(q.Rules) != 3 {
		t.Errorf("clone has %d rules, want 3", len(q.Rules))
	}
}

func TestParseStringEscapes(t *testing.T) {
	prog, err := Parse(`p("a\"b").`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := prog.Rules[0].Head.Args[0].(Constant)
	if !ok || c.Name != `a"b` {
		t.Errorf("got %#v", prog.Rules[0].Head.Args[0])
	}
	if !strings.Contains(prog.Rules[0].String(), `\"`) {
		t.Errorf("printed form should re-escape: %s", prog.Rules[0].String())
	}
}
