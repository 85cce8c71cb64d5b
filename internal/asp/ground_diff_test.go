package asp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The grounder is checked against the definition in Ground's doc
// comment rather than against a second grounder: groundByDefinition
// instantiates the normal program with naive nested loops over the
// domain (no index, no plan, no join order), and checkGrounding
// compares the result with a GroundProgram as a set of rules.

// groundBudget bounds the tuples groundByDefinition may visit for one
// program; larger inputs are skipped, not checked.
const groundBudget = 2_000_000

var errGroundBudget = errors.New("definitional grounding exceeds the tuple budget")

// defGrounder holds the domain of a definitional grounding.
type defGrounder struct {
	rels   map[predKey][]Atom // domain atoms by predicate
	domain map[string]bool    // domain atom keys
	work   int                // tuples visited so far
}

// groundByDefinition grounds prepare(p)'s normal program by
// definition and returns its instances as canonical rule lines, sorted:
//
//   - the domain is the least fixpoint of the rules with negative
//     literals ignored;
//   - an instance of a rule is a tuple of domain atoms, one per positive
//     literal, that matches those literals and under which every
//     comparison and binder equality holds;
//   - a negative atom outside the domain is dropped from the instance.
func groundByDefinition(p *Program) ([]string, error) {
	normal, err := prepare(p)
	if err != nil {
		return nil, err
	}
	d := &defGrounder{rels: map[predKey][]Atom{}, domain: map[string]bool{}}
	for {
		var derived []Atom
		for _, r := range normal.Rules {
			if r.Head == nil {
				continue
			}
			err := d.each(r, func(b Binding, _ []Atom) {
				if h, ok := evalGroundAtom(r.Head.Substitute(b)); ok {
					derived = append(derived, h)
				}
			})
			if err != nil {
				return nil, err
			}
		}
		grew := false
		for _, h := range derived {
			if k := h.Key(); !d.domain[k] {
				d.domain[k] = true
				pk := atomPredKey(h)
				d.rels[pk] = append(d.rels[pk], h)
				grew = true
			}
		}
		if !grew {
			break
		}
	}

	set := map[string]bool{}
	for _, r := range normal.Rules {
		err := d.each(r, func(b Binding, tuple []Atom) {
			head := ""
			if r.Head != nil {
				h, ok := evalGroundAtom(r.Head.Substitute(b))
				if !ok {
					return
				}
				head = h.Key()
			}
			pos := make([]string, len(tuple))
			for i, a := range tuple {
				pos[i] = a.Key()
			}
			var neg []string
			for _, l := range r.Body {
				if l.IsCmp || !l.Negated {
					continue
				}
				a, ok := evalGroundAtom(l.Atom.Substitute(b))
				if !ok {
					return
				}
				if k := a.Key(); d.domain[k] {
					neg = append(neg, k)
				}
			}
			set[canonicalRule(head, pos, neg)] = true
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]string, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Strings(out)
	return out, nil
}

// each calls emit for every instance of r over the current domain, with
// the instance's binding and its positive atoms in body order (so a
// literal repeated in the body keeps its multiplicity).
func (d *defGrounder) each(r Rule, emit func(b Binding, tuple []Atom)) error {
	var lits []Atom
	for _, l := range r.Body {
		if !l.IsCmp && !l.Negated {
			lits = append(lits, l.Atom)
		}
	}
	for _, a := range lits {
		if len(d.rels[atomPredKey(a)]) == 0 {
			return nil
		}
	}
	product := 1
	for _, a := range lits {
		product *= len(d.rels[atomPredKey(a)])
		if product > groundBudget {
			return errGroundBudget
		}
	}
	if d.work += product; d.work > groundBudget {
		return errGroundBudget
	}
	tuple := make([]Atom, len(lits))
	var loop func(i int)
	loop = func(i int) {
		if i == len(lits) {
			if b, ok := bindTuple(r, lits, tuple); ok {
				emit(b, tuple)
			}
			return
		}
		for _, a := range d.rels[atomPredKey(lits[i])] {
			tuple[i] = a
			loop(i + 1)
		}
	}
	loop(0)
	return nil
}

// bindTuple matches the positive literals against the tuple, resolves
// binder equalities, and checks every comparison. Arithmetic pattern
// arguments are compared only once every variable is bound, and an
// evaluation error rejects the tuple.
func bindTuple(r Rule, lits, tuple []Atom) (Binding, bool) {
	b := Binding{}
	var arith [][2]Term // deferred (pattern, ground) argument pairs
	for i, pat := range lits {
		for j, t := range pat.Args {
			if !unifyTerm(t, tuple[i].Args[j], b, &arith) {
				return nil, false
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if !l.IsCmp || l.Op != CmpEq {
				continue
			}
			if v, expr, ok := binderSides(l, b); ok {
				val, err := EvalArith(expr.substitute(b))
				if err != nil {
					return nil, false
				}
				b[v.Name] = val
				changed = true
			}
		}
	}
	for _, pg := range arith {
		v, err := EvalArith(pg[0].substitute(b))
		if err != nil || !v.Ground() || !termEq(v, pg[1]) {
			return nil, false
		}
	}
	for _, l := range r.Body {
		if l.IsCmp {
			if ok, err := EvalCmp(l.Substitute(b)); err != nil || !ok {
				return nil, false
			}
		}
	}
	return b, true
}

// unifyTerm matches a pattern against a ground term, binding variables
// in b and deferring arithmetic subterms to arith.
func unifyTerm(pat, ground Term, b Binding, arith *[][2]Term) bool {
	switch pt := pat.(type) {
	case Variable:
		if v, ok := b[pt.Name]; ok {
			return termEq(v, ground)
		}
		b[pt.Name] = ground
		return true
	case Compound:
		gt, ok := ground.(Compound)
		if !ok || gt.Functor != pt.Functor || len(gt.Args) != len(pt.Args) {
			return false
		}
		for i := range pt.Args {
			if !unifyTerm(pt.Args[i], gt.Args[i], b, arith) {
				return false
			}
		}
		return true
	case Arith:
		*arith = append(*arith, [2]Term{pat, ground})
		return true
	default:
		return termEq(pat, ground)
	}
}

// evalGroundAtom evaluates the arithmetic in a substituted atom,
// reporting false when an argument errors or stays non-ground.
func evalGroundAtom(a Atom) (Atom, bool) {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		v, err := EvalArith(t)
		if err != nil || !v.Ground() {
			return Atom{}, false
		}
		args[i] = v
	}
	return Atom{Predicate: a.Predicate, Args: args}, true
}

// canonicalRule renders one ground rule over atom keys, sorting its
// positive and negative bodies in place: finalize deduplicates rules by
// the sorted body multiset, so body order is not part of the result.
// Atoms are keyed as the interner keys them (quoted and bare constants
// of the same name are one atom).
func canonicalRule(head string, pos, neg []string) string {
	sort.Strings(pos)
	sort.Strings(neg)
	var sb strings.Builder
	sb.WriteString(head)
	sb.WriteString(" :- ")
	sb.WriteString(strings.Join(pos, ", "))
	for _, n := range neg {
		sb.WriteString(", not ")
		sb.WriteString(n)
	}
	return sb.String()
}

// canonicalRules renders a ground program's rules canonically, sorted,
// keeping duplicates.
func canonicalRules(g *GroundProgram) []string {
	out := make([]string, len(g.Rules))
	for i, r := range g.Rules {
		head := ""
		if r.Head >= 0 {
			head = g.Atoms[r.Head].Key()
		}
		pos := make([]string, len(r.PosBody))
		for j, id := range r.PosBody {
			pos[j] = g.Atoms[id].Key()
		}
		neg := make([]string, len(r.NegBody))
		for j, id := range r.NegBody {
			neg[j] = g.Atoms[id].Key()
		}
		out[i] = canonicalRule(head, pos, neg)
	}
	sort.Strings(out)
	return out
}

// diffRules reports the rules of want missing from got and the rules of
// got (duplicates included) not in want, or nil when they agree.
func diffRules(got, want []string) error {
	count := map[string]int{}
	for _, w := range want {
		count[w]++
	}
	var extra, missing []string
	for _, g := range got {
		if count[g] == 0 {
			extra = append(extra, g)
			continue
		}
		count[g]--
	}
	for _, w := range want {
		if count[w] > 0 {
			missing = append(missing, w)
			count[w]--
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("missing instances:\n  %s\nextra instances:\n  %s",
		strings.Join(missing, "\n  "), strings.Join(extra, "\n  "))
}

// checkGrounding compares g with the definitional grounding of p. It
// returns errGroundBudget when p is too large to ground by definition.
func checkGrounding(p *Program, g *GroundProgram) error {
	want, err := groundByDefinition(p)
	if err != nil {
		return err
	}
	return diffRules(canonicalRules(g), want)
}

// checkedGround grounds p and fails the test unless the result matches
// the definitional grounding. It returns the canonical rules.
func checkedGround(t *testing.T, label string, p *Program) []string {
	t.Helper()
	g, err := Ground(p, GroundingOptions{})
	if err != nil {
		t.Fatalf("%s: ground: %v", label, err)
	}
	if err := checkGrounding(p, g); err != nil {
		t.Fatalf("%s: grounding differs from the definition: %v", label, err)
	}
	return canonicalRules(g)
}

// TestGroundCheckerRejectsWrongPrograms: the definitional checker
// accepts Ground's output and rejects it with one instance removed or
// one extra instance added.
func TestGroundCheckerRejectsWrongPrograms(t *testing.T) {
	p := mustParse(t, "p(a). p(b). r(b). q(X) :- p(X), not r(X). s :- q(X), q(Y), X != Y.")
	g, err := Ground(p, GroundingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGrounding(p, g); err != nil {
		t.Fatalf("checker rejects Ground's output: %v", err)
	}
	for i := range g.Rules {
		removed := &GroundProgram{Atoms: g.Atoms, Rules: slices.Delete(slices.Clone(g.Rules), i, i+1)}
		if checkGrounding(p, removed) == nil {
			t.Errorf("checker accepts the program without rule %d", i)
		}
	}
	pa, _ := ParseAtom("p(a)")
	qb, _ := ParseAtom("q(b)")
	wrong := GroundRule{Head: g.AtomID(qb), PosBody: []int32{g.AtomID(pa)}}
	extra := &GroundProgram{Atoms: g.Atoms, Rules: append(slices.Clone(g.Rules), wrong)}
	if checkGrounding(p, extra) == nil {
		t.Error("checker accepts the extra instance q(b) :- p(a)")
	}
}

// TestGroundDifferentialCorpus checks Ground against the definition
// over the corpus.
func TestGroundDifferentialCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.lp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/corpus")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if rules := checkedGround(t, filepath.Base(f), prog); len(rules) == 0 {
			t.Fatalf("%s: corpus program grounded to nothing", f)
		}
	}
}

// TestIncrementalDifferential checks the grounding of a base program —
// recursion, negation and a constraint — extended in turn with facts
// that seed the recursion, a fact the constraint negates, and a rule
// with a comparison, and then of the base alone, against the
// definition.
func TestIncrementalDifferential(t *testing.T) {
	base := `
		n(1..3).
		p(X) :- seed(X).
		p(Y) :- p(X), link(X,Y).
		link(1,2). link(2,3).
		q(X) :- n(X), not p(X).
		:- p(3), not ok.
	`
	exts := []string{
		"seed(1). ok.",
		"seed(2).",
		"seed(X) :- n(X), X > 2.",
	}
	for i, src := range exts {
		checkedGround(t, fmt.Sprintf("ext %d", i), extended(t, base, src))
	}
	checkedGround(t, "base", extended(t, base))
}

// FuzzGroundDifferential grounds every parseable program and requires
// the result to match the definitional grounding whenever Ground
// succeeds and the program is small enough to ground by definition.
// Ground's errors are not checked: the definition has no notion of
// which evaluation error a grounder meets first.
func FuzzGroundDifferential(f *testing.F) {
	seeds := []string{
		"p(a). q(X) :- p(X).",
		"n(1..4). s(X,Y) :- n(X), Y = X + 1, n(Y).",
		"e(1,2). e(2,3). t(X,Z) :- e(X,Y), e(Y,Z).",
		"a(1..3). b(2..4). j(X) :- a(X), b(X), X > 1.",
		"item(a). item(b). ok(X) :- item(X), not bad(X). bad(b).",
		"{x; y} :- c. c. :- x, y.",
		"n(1..5). even(X) :- n(X), X \\ 2 = 0.",
		"p(f(a)). q(X) :- p(f(X)).",
		"a(1). b(1). :- a(X), b(Y), X != Y.",
		"n(1..3). d(D) :- n(X), n(Y), D = X - Y, D > 0.",
		"a :- not b. a :- not c. b :- not a. c :- not a.",
		"edge(a,b). edge(b,c). edge(c,d). path(X,Y) :- edge(X,Y). path(X,Z) :- edge(X,Y), path(Y,Z).",
		"p(a). q(X) :- p(X), not r(X). r(b).",
		"num(0). num(N+1) :- num(N), N < 5. even(N) :- num(N), N \\ 2 = 0.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 300 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		g, err := Ground(prog, GroundingOptions{MaxAtoms: 300})
		if err != nil {
			return
		}
		err = checkGrounding(prog, g)
		if errors.Is(err, errGroundBudget) {
			return
		}
		if err != nil {
			t.Fatalf("grounding of %q differs from the definition: %v", src, err)
		}
	})
}
