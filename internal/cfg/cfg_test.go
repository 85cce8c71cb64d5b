package cfg

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustGrammar(t *testing.T, src string) *Grammar {
	t.Helper()
	g, err := ParseGrammar(src)
	if err != nil {
		t.Fatalf("ParseGrammar: %v", err)
	}
	return g
}

const exprGrammar = `
# arithmetic over a and b
expr -> term | term "+" expr
term -> "a" | "b" | "(" expr ")"
`

func TestParseGrammarBasics(t *testing.T) {
	g := mustGrammar(t, exprGrammar)
	if g.Start != "expr" {
		t.Errorf("start = %q, want expr", g.Start)
	}
	if len(g.Productions) != 5 {
		t.Errorf("got %d productions, want 5", len(g.Productions))
	}
	wantNT := []string{"expr", "term"}
	if got := g.Nonterminals(); !reflect.DeepEqual(got, wantNT) {
		t.Errorf("nonterminals = %v, want %v", got, wantNT)
	}
	wantT := []string{"(", ")", "+", "a", "b"}
	if got := g.Terminals(); !reflect.DeepEqual(got, wantT) {
		t.Errorf("terminals = %v, want %v", got, wantT)
	}
}

func TestParseGrammarErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "no arrow", give: "expr term"},
		{name: "undefined nonterminal", give: `expr -> term`},
		{name: "empty", give: "   \n  # comment only\n"},
		{name: "bad lhs", give: `"x" -> "y"`},
		{name: "unterminated terminal", give: `expr -> "abc`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseGrammar(tt.give); err == nil {
				t.Errorf("ParseGrammar(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestAccepts(t *testing.T) {
	g := mustGrammar(t, exprGrammar)
	tests := []struct {
		give string
		want bool
	}{
		{give: "a", want: true},
		{give: "b", want: true},
		{give: "a + b", want: true},
		{give: "a + b + a", want: true},
		{give: "( a + b )", want: true},
		{give: "( a + ( b + a ) )", want: true},
		{give: "a +", want: false},
		{give: "+ a", want: false},
		{give: "( a", want: false},
		{give: "c", want: false},
		{give: "", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			if got := g.Accepts(Tokenize(tt.give)); got != tt.want {
				t.Errorf("Accepts(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestAcceptsEpsilon(t *testing.T) {
	g := mustGrammar(t, `
list -> ε | item list
item -> "x"
`)
	tests := []struct {
		give []string
		want bool
	}{
		{give: nil, want: true},
		{give: []string{"x"}, want: true},
		{give: []string{"x", "x", "x"}, want: true},
		{give: []string{"y"}, want: false},
	}
	for _, tt := range tests {
		if got := g.Accepts(tt.give); got != tt.want {
			t.Errorf("Accepts(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestParseTreeStructure(t *testing.T) {
	g := mustGrammar(t, exprGrammar)
	tree, err := g.Parse(Tokenize("a + b"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tree.Text(); got != "a + b" {
		t.Errorf("Text = %q", got)
	}
	if tree.Sym.Name != "expr" {
		t.Errorf("root symbol = %v", tree.Sym)
	}
	if tree.Prod == nil || tree.Prod.Lhs != "expr" {
		t.Errorf("root production = %v", tree.Prod)
	}
	if tree.Size() < 5 {
		t.Errorf("tree too small: %d nodes\n%s", tree.Size(), tree.Pretty())
	}
}

func TestParseAllAmbiguous(t *testing.T) {
	// Classic ambiguous grammar: two trees for "a + a + a".
	g := mustGrammar(t, `
e -> e "+" e | "a"
`)
	trees := g.ParseAll(Tokenize("a + a + a"), ParseOptions{})
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2 (left/right association)", len(trees))
	}
	for _, tr := range trees {
		if tr.Text() != "a + a + a" {
			t.Errorf("tree derives %q", tr.Text())
		}
	}
	// With a cap of 1.
	capped := g.ParseAll(Tokenize("a + a + a"), ParseOptions{MaxTrees: 1})
	if len(capped) != 1 {
		t.Errorf("got %d capped trees, want 1", len(capped))
	}
}

func TestParseNotInLanguage(t *testing.T) {
	g := mustGrammar(t, exprGrammar)
	if _, err := g.Parse(Tokenize("a b")); err == nil {
		t.Error("Parse of invalid string should fail")
	}
	if trees := g.ParseAll([]string{"zzz"}, ParseOptions{}); trees != nil {
		t.Errorf("ParseAll of invalid string = %v, want nil", trees)
	}
}

func TestParseUnitCycle(t *testing.T) {
	// a -> b, b -> a | "x": minimal tree still found despite the cycle.
	g := mustGrammar(t, `
a -> b
b -> a | "x"
`)
	tree, err := g.Parse([]string{"x"})
	if err != nil {
		t.Fatalf("Parse through unit cycle: %v", err)
	}
	if tree.Text() != "x" {
		t.Errorf("Text = %q", tree.Text())
	}
}

func TestTraces(t *testing.T) {
	g := mustGrammar(t, `
s -> "p" s | "q"
`)
	tree, err := g.Parse([]string{"p", "p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string) // trace -> symbol
	tree.Walk(func(n *Tree, tr Trace) bool {
		got[tr.String()] = n.Sym.Name
		return true
	})
	want := map[string]string{
		"[]":      "s",
		"[1]":     "p",
		"[2]":     "s",
		"[2,1]":   "p",
		"[2,2]":   "s",
		"[2,2,1]": "q",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traces = %v, want %v", got, want)
	}
}

func TestTraceKeyAndChild(t *testing.T) {
	root := Trace{}
	if root.Key() != "r" || root.String() != "[]" {
		t.Errorf("root trace: key=%q str=%q", root.Key(), root.String())
	}
	c := root.Child(2).Child(1)
	if c.Key() != "r_2_1" || c.String() != "[2,1]" {
		t.Errorf("child trace: key=%q str=%q", c.Key(), c.String())
	}
	// Child must not alias the parent's backing array.
	a := root.Child(1)
	b := root.Child(2)
	if a[0] != 1 || b[0] != 2 {
		t.Errorf("trace aliasing: a=%v b=%v", a, b)
	}
}

func TestGenerateFiniteLanguage(t *testing.T) {
	g := mustGrammar(t, `
policy -> "permit" subject | "deny" subject
subject -> "alice" | "bob"
`)
	got := g.GenerateStrings(GenerateOptions{MaxNodes: 10})
	sort.Strings(got)
	want := []string{"deny alice", "deny bob", "permit alice", "permit bob"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("language = %v, want %v", got, want)
	}
}

func TestGenerateRecursiveBounded(t *testing.T) {
	g := mustGrammar(t, `
s -> "x" | "x" s
`)
	got := g.GenerateStrings(GenerateOptions{MaxNodes: 7})
	// Trees: s("x") = 2 nodes; s("x", s) adds 2 per level.
	want := []string{"x", "x x", "x x x"}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bounded language = %v, want %v", got, want)
	}
}

// TestGenerateMaxTrees: a caller caps the trees by stopping its yield;
// the cap keeps the first trees of the deterministic order, smallest
// first, however large the node bound.
func TestGenerateMaxTrees(t *testing.T) {
	g := mustGrammar(t, `
s -> "x" | "x" s
`)
	var got []string
	g.Generate(GenerateOptions{MaxNodes: 100}, func(tr *Tree) bool {
		got = append(got, tr.Text())
		return len(got) < 5
	})
	want := []string{"x", "x x", "x x x", "x x x x", "x x x x x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("capped trees = %q, want %q", got, want)
	}
}

func TestGenerateYieldStop(t *testing.T) {
	g := mustGrammar(t, `
s -> "x" | "x" s
`)
	count := 0
	g.Generate(GenerateOptions{MaxNodes: 50}, func(*Tree) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("yield stop ignored: %d trees", count)
	}
}

// TestGenerateParseRoundTrip: every generated string parses, and one of
// its parse trees derives the same string.
func TestGenerateParseRoundTrip(t *testing.T) {
	grammars := []string{
		exprGrammar,
		"s -> \"x\" | \"x\" s\n",
		"p -> \"permit\" \"(\" who \")\" | \"deny\" \"(\" who \")\"\nwho -> \"alice\" | \"bob\" | \"carol\"\n",
	}
	for _, src := range grammars {
		g := mustGrammar(t, src)
		var trees []*Tree
		g.Generate(GenerateOptions{MaxNodes: 9}, func(tr *Tree) bool {
			trees = append(trees, tr)
			return len(trees) < 50
		})
		if len(trees) == 0 {
			t.Fatalf("no trees generated for %q", src)
		}
		for _, tr := range trees {
			toks := tr.Tokens()
			if !g.Accepts(toks) {
				t.Errorf("generated string %v not accepted (grammar %q)", toks, src)
			}
		}
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		give string
		want []string
	}{
		{give: "permit(alice, read)", want: []string{"permit", "(", "alice", ",", "read", ")"}},
		{give: "a  +  b", want: []string{"a", "+", "b"}},
		{give: "x<=3", want: []string{"x", "<", "=", "3"}},
		{give: "", want: nil},
		{give: "  \t ", want: nil},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.give); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestTreeAccessors(t *testing.T) {
	g := mustGrammar(t, exprGrammar)
	tree, err := g.Parse(Tokenize("( a + b )"))
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d < 3 {
		t.Errorf("Depth = %d, want >= 3", d)
	}
	pretty := tree.Pretty()
	for _, want := range []string{"expr", "term", `"a"`} {
		if !strings.Contains(pretty, want) {
			t.Errorf("Pretty output missing %q:\n%s", want, pretty)
		}
	}
}

func TestProductionString(t *testing.T) {
	p := Production{Lhs: "s", Rhs: []Symbol{T("x"), NT("s")}}
	if got := p.String(); got != `s -> "x" s` {
		t.Errorf("String = %q", got)
	}
	eps := Production{Lhs: "s"}
	if got := eps.String(); got != "s -> ε" {
		t.Errorf("epsilon String = %q", got)
	}
}

// TestAcceptsMatchesGeneration (property): for random small token strings
// over the terminal alphabet, Accepts agrees with membership in the
// bounded generated language when the string is short enough that the
// generation bound is exhaustive.
func TestAcceptsMatchesGeneration(t *testing.T) {
	g := mustGrammar(t, `
s -> "x" | "y" | "x" s
`)
	// All strings of <= 3 tokens in the language: x, y, x x, x y, x x x,
	// x x y. Generation with enough nodes covers them.
	lang := make(map[string]struct{})
	for _, s := range g.GenerateStrings(GenerateOptions{MaxNodes: 8}) {
		lang[s] = struct{}{}
	}
	f := func(pattern uint8, length uint8) bool {
		n := int(length%3) + 1
		toks := make([]string, n)
		for i := 0; i < n; i++ {
			if pattern&(1<<i) != 0 {
				toks[i] = "x"
			} else {
				toks[i] = "y"
			}
		}
		_, inLang := lang[strings.Join(toks, " ")]
		return g.Accepts(toks) == inLang
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
