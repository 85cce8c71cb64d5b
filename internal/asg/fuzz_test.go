package asg

import (
	"strings"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/cfg"
)

// Generation and membership are two readings of Definition 1: Generate
// keeps a string once one of its derivation trees T has a program G[T]
// with an answer set, and Accepts asks the same of the string's parse
// trees. FuzzGenerateAccepts checks that the two agree on small fuzzed
// grammars, so callers may install Generate's output without re-checking
// each string through Accepts, and that TreeValid, which may read one
// shared copy of the context, agrees with the literal G(C)[T].

// fuzzTemplates are the annotation rules a fuzzed production draws from:
// facts, constraints, @i reads, negation and one comparison. Up to
// renaming they cover the three grammars of TestGenerateAcceptsAgreement.
var fuzzTemplates = []string{
	"p.",
	"q.",
	"n(0).",
	":- r.",
	":- t.",
	":- p@2, r.",
	"p :- p@1.",
	"n(N + 1) :- n(N)@2.",
	":- n(M), M > 2.",
	"p :- not q.",
	"q :- not p.",
	":- not p@1.",
}

var (
	fuzzNonterminals = []string{"s", "a", "b"}
	fuzzTerminals    = []string{`"x"`, `"y"`}
	// fuzzFacts are the atoms a fuzzed context may assert.
	fuzzFacts = []string{"r", "t", "p"}
	// fuzzContextRule is the one non-fact rule a fuzzed context may
	// hold; with it, G(C) copies the context into every production.
	fuzzContextRule = "r :- not t."
)

// decodeFuzzASG decodes a small ASG source and a context: at most 3
// nonterminals (production 0 defines the start symbol s), at most 6
// productions of 0–3 symbols each, and up to two annotation templates
// per production; the context holds some of fuzzFacts and, with flags
// bit 5, fuzzContextRule. Missing bytes read as zero. Nothing stops two
// productions from being equal (an ambiguous pair) or empty (an
// ε-production).
func decodeFuzzASG(data []byte) (string, *asp.Program) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	nts := fuzzNonterminals[:1+(flags&3)%3]
	ctx := asp.NewProgram()
	for i, f := range fuzzFacts {
		if (flags>>2)&(1<<i) != 0 {
			ctx.Add(asp.NewFact(asp.NewAtom(f)))
		}
	}
	if flags&(1<<5) != 0 {
		rule, err := asp.Parse(fuzzContextRule)
		if err != nil {
			panic(err)
		}
		ctx.Extend(rule)
	}
	var src strings.Builder
	for n := 1 + next()%6; n > 0; n-- {
		shape := next()
		lhs := nts[(shape&3)%len(nts)]
		if src.Len() == 0 {
			lhs = nts[0]
		}
		src.WriteString(lhs + " ->")
		rhs := (shape >> 2) % 4
		if rhs == 0 {
			src.WriteString(" ε")
		}
		for ; rhs > 0; rhs-- {
			sym := next() % (len(nts) + len(fuzzTerminals))
			if sym < len(nts) {
				src.WriteString(" " + nts[sym])
			} else {
				src.WriteString(" " + fuzzTerminals[sym-len(nts)])
			}
		}
		ann := next()
		var rules []string
		for _, k := range []int{ann % 13, ann / 13 % 13} {
			if k > 0 {
				rules = append(rules, fuzzTemplates[k-1])
			}
		}
		if len(rules) > 0 {
			src.WriteString(" { " + strings.Join(rules, " ") + " }")
		}
		src.WriteString("\n")
	}
	return src.String(), ctx
}

// derivesItself reports whether some nonterminal A derives A itself
// (A ⇒+ A): through a production whose other right-hand symbols are
// all nullable, and a chain of such steps.
func derivesItself(g *cfg.Grammar) bool {
	nullable := make(map[string]bool)
	allNullable := func(syms []cfg.Symbol) bool {
		for _, s := range syms {
			if s.Terminal || !nullable[s.Name] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions {
			if !nullable[p.Lhs] && allNullable(p.Rhs) {
				nullable[p.Lhs], changed = true, true
			}
		}
	}
	unit := make(map[string][]string)
	for _, p := range g.Productions {
		for i, s := range p.Rhs {
			if !s.Terminal && allNullable(p.Rhs[:i]) && allNullable(p.Rhs[i+1:]) {
				unit[p.Lhs] = append(unit[p.Lhs], s.Name)
			}
		}
	}
	for _, a := range g.Nonterminals() {
		seen := make(map[string]bool)
		stack := append([]string(nil), unit[a]...)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if b == a {
				return true
			}
			if !seen[b] {
				seen[b] = true
				stack = append(stack, unit[b]...)
			}
		}
	}
	return false
}

// literalTreeProgram builds G(C)[T] as Definition 2 reads it, apart from
// TreeProgram: every interior node contributes its production's
// annotation and one copy of C, each atom localized at the node's trace
// and `a@i` at its i-th child's.
func literalTreeProgram(g *Grammar, ctx *asp.Program, tree *cfg.Tree) *asp.Program {
	out := asp.NewProgram()
	tree.Walk(func(node *cfg.Tree, tr cfg.Trace) bool {
		if node.Prod == nil {
			return true
		}
		var rules []asp.Rule
		if ann := g.Annotations[node.Prod.ID]; ann != nil {
			rules = append(rules, ann.Rules...)
		}
		for _, r := range append(rules, ctx.Rules...) {
			out.Add(literalLocalize(r, tr))
		}
		return true
	})
	return out
}

func literalLocalize(r asp.Rule, tr cfg.Trace) asp.Rule {
	at := func(a asp.Atom) asp.Atom {
		name, child, ok := DecodeAnnotated(a.Predicate)
		trace := tr
		if ok {
			trace = tr.Child(child)
		}
		a.Predicate = name + "@" + trace.Key()
		return a
	}
	out := asp.Rule{}
	if r.Head != nil {
		h := at(*r.Head)
		out.Head = &h
	}
	for _, a := range r.Choice {
		out.Choice = append(out.Choice, at(a))
	}
	for _, l := range r.Body {
		if !l.IsCmp {
			l.Atom = at(l.Atom)
		}
		out.Body = append(out.Body, l)
	}
	return out
}

// FuzzGenerateAccepts: at MaxNodes 7, every string Generate returns is
// accepted, every string of the CFG's bounded language that Accepts
// admits is generated, and G(C)'s TreeValid agrees with the literal
// G(C)[T] on every derivation tree within the bound.
func FuzzGenerateAccepts(f *testing.F) {
	seeds := [][]byte{
		// TestGenerateAcceptsAgreement's grammars: accept/reject over
		// two tasks in the rain, a route plan under threat at night, and
		// a counter that rejects more than two x.
		{5, 3, 8, 2, 1, 6, 8, 3, 1, 0, 5, 2, 1, 5, 3, 2},
		{13, 2, 8, 2, 1, 5, 5, 2, 1, 5, 3, 54},
		{0, 1, 8, 1, 0, 125, 0, 3},
		// "x x" through an ambiguous pair and "x" through an
		// ε-production: one parse tree fails in the context r and the
		// other holds, in both production orders.
		{5, 2, 8, 2, 1, 6, 8, 2, 1, 0, 5, 2, 1},
		{5, 2, 8, 2, 1, 0, 8, 2, 1, 6, 5, 2, 1},
		{5, 2, 8, 2, 1, 0, 4, 2, 0, 1, 4},
		{5, 2, 4, 2, 0, 8, 2, 1, 0, 1, 4},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 40 {
			return
		}
		src, ctx := decodeFuzzASG(data)
		g, err := ParseASG(src)
		if err != nil {
			return // an undefined nonterminal or an @i beyond the arity
		}
		// Generate enumerates derivation trees and so reaches trees that
		// pump a cycle A ⇒+ A; ParseAll drops those trees by design.
		if derivesItself(g.CFG) {
			return
		}
		gc := g.WithContext(ctx)
		const maxNodes = 7
		gc.CFG.Generate(cfg.GenerateOptions{MaxNodes: maxNodes}, func(tree *cfg.Tree) bool {
			models, err := asp.Solve(literalTreeProgram(g, ctx, tree), asp.SolveOptions{MaxModels: 1})
			if err != nil {
				t.Fatalf("literal G(C)[T] of %q: %v\n%s\ncontext: %s", tree.Text(), err, src, ctx)
			}
			valid, err := gc.TreeValid(tree)
			if err != nil {
				t.Fatalf("TreeValid(%q): %v\n%s\ncontext: %s", tree.Text(), err, src, ctx)
			}
			if want := len(models) > 0; valid != want {
				t.Fatalf("TreeValid(%q) = %v, literal G(C)[T] has an answer set: %v\n%s\ncontext: %s",
					tree.Text(), valid, want, src, ctx)
			}
			return true
		})
		generated, err := gc.Generate(GenerateOptions{MaxNodes: maxNodes})
		if err != nil {
			t.Fatalf("Generate: %v\n%s\ncontext: %s", err, src, ctx)
		}
		// check reports whether Accepts admits s; ok is false for a string
		// Accepts cannot decide completely: its parse trees reach the
		// cap, which Accepts does not look past.
		check := func(s string) (trees []*cfg.Tree, accepted, ok bool) {
			tokens := strings.Fields(s)
			trees = gc.CFG.ParseAll(tokens, cfg.ParseOptions{})
			if len(trees) >= cfg.DefaultMaxTrees {
				return nil, false, false
			}
			accepted, err := gc.Accepts(tokens)
			if err != nil {
				t.Fatalf("Accepts(%q): %v\n%s\ncontext: %s", s, err, src, ctx)
			}
			return trees, accepted, true
		}
		genSet := make(map[string]bool, len(generated))
		for _, p := range generated {
			genSet[p.Text()] = true
			if _, accepted, ok := check(p.Text()); ok && !accepted {
				t.Fatalf("generated %q is not accepted\n%s\ncontext: %s", p.Text(), src, ctx)
			}
		}
		for _, s := range gc.CFG.GenerateStrings(cfg.GenerateOptions{MaxNodes: maxNodes}) {
			trees, accepted, ok := check(s)
			if !ok || !accepted || genSet[s] {
				continue
			}
			// Accepts may admit s through a parse tree larger than the
			// bound alone, which Generate does not reach; s is missing
			// only if a parse tree within the bound holds.
			for _, tr := range trees {
				if tr.Size() > maxNodes {
					continue
				}
				if valid, err := gc.TreeValid(tr); err != nil || valid {
					t.Fatalf("accepted %q is not generated (%v)\n%s\ncontext: %s", s, err, src, ctx)
				}
			}
		}
	})
}
