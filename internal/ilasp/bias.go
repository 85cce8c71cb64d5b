// Package ilasp implements an inductive learner for answer set programs
// in the style of the ILASP system the paper relies on (Law, Russo,
// Broda): hypothesis spaces defined by mode declarations, brave
// coverage of context-dependent partial-interpretation examples, and an
// optimal (minimal-cost) hypothesis search, with a noise-tolerant variant
// that maximises weighted coverage minus hypothesis cost.
//
// The paper's learning workflow (Figure 1) feeds examples of valid and
// invalid policies to this learner to obtain ASP hypotheses; package
// asglearn layers the answer-set-grammar task of Definition 3 on top of
// the same search engine.
package ilasp

import (
	"fmt"
	"sort"
	"strings"

	"agenp/internal/asp"
)

// ArgKind distinguishes the placeholder kinds in mode declarations.
type ArgKind int

// Placeholder kinds.
const (
	// ArgVar is a typed variable placeholder: var(type).
	ArgVar ArgKind = iota + 1
	// ArgConst is a typed constant placeholder: const(type), expanded
	// from the bias's constant pool.
	ArgConst
)

// ArgSpec is one argument slot of a mode atom.
type ArgSpec struct {
	Kind ArgKind
	Type string
}

// Var builds a variable placeholder of a type.
func Var(typeName string) ArgSpec { return ArgSpec{Kind: ArgVar, Type: typeName} }

// Const builds a constant placeholder of a type.
func Const(typeName string) ArgSpec { return ArgSpec{Kind: ArgConst, Type: typeName} }

// Constants builds a constant pool (see Bias.Constants) from names.
func Constants(names ...string) []asp.Term {
	out := make([]asp.Term, len(names))
	for i, n := range names {
		out[i] = asp.Constant{Name: n}
	}
	return out
}

// ModeAtom is a mode declaration: a predicate schema usable in hypothesis
// rules.
type ModeAtom struct {
	Predicate string
	Args      []ArgSpec
}

// M builds a mode atom.
func M(pred string, args ...ArgSpec) ModeAtom {
	return ModeAtom{Predicate: pred, Args: args}
}

func (m ModeAtom) String() string {
	if len(m.Args) == 0 {
		return m.Predicate
	}
	parts := make([]string, len(m.Args))
	for i, a := range m.Args {
		switch a.Kind {
		case ArgConst:
			parts[i] = "const(" + a.Type + ")"
		default:
			parts[i] = "var(" + a.Type + ")"
		}
	}
	return m.Predicate + "(" + strings.Join(parts, ",") + ")"
}

// CmpSpec allows comparison literals `V op value` between a variable of
// the given type and each listed value, for every listed operator.
type CmpSpec struct {
	Type   string
	Ops    []asp.CmpOp
	Values []asp.Term
}

// Bias is the language bias defining a hypothesis space (ILASP's mode
// declarations).
type Bias struct {
	// Head lists modeh declarations. An empty Head with AllowConstraints
	// yields a constraint-only space.
	Head []ModeAtom
	// Body lists modeb declarations.
	Body []ModeAtom
	// Constants maps a type name to its constant pool.
	Constants map[string][]asp.Term
	// Comparisons adds comparison literals to the body alphabet.
	Comparisons []CmpSpec
	// VarComparisons additionally admits comparisons between two
	// distinct variables of each Comparisons spec's type (e.g. V1 < V2),
	// enabling relational rules such as "the vehicle LOA is below the
	// region minimum".
	VarComparisons bool

	// MaxVars bounds distinct variables per rule (default 2).
	MaxVars int
	// MaxBody bounds body literals per rule (default 2).
	MaxBody int
	// AllowConstraints admits headless rules.
	AllowConstraints bool
	// AllowNegation admits negation-as-failure body literals.
	AllowNegation bool
	// RequireBody excludes bodyless rules (bare facts) from the space.
	RequireBody bool
}

// Candidate is one rule of the hypothesis space.
type Candidate struct {
	Rule asp.Rule
	// Cost is the rule length: 1 for a head plus 1 per body literal
	// (ILASP's default optimisation objective).
	Cost int
}

func (c Candidate) String() string {
	return fmt.Sprintf("%s (cost %d)", c.Rule.String(), c.Cost)
}

// varNames provides deterministic variable names V1, V2, ...
func varName(i int) string { return fmt.Sprintf("V%d", i+1) }

// bodyLit is an element of the body alphabet: an instantiated literal
// schema whose variable slots carry types.
type bodyLit struct {
	lit     asp.Literal
	varType map[string]string // variable name -> type
}

// Space enumerates the hypothesis space defined by the bias: all
// distinct, safe rules with at most MaxBody body literals and MaxVars
// variables, with canonical variable naming. The result is sorted by
// (cost, text) for deterministic search order. Every call enumerates
// afresh (ilasp.space.built counts them); a Task memoizes the space by
// bias content instead.
func (b Bias) Space() ([]Candidate, error) {
	maxVars := b.MaxVars
	if maxVars <= 0 {
		maxVars = 2
	}
	maxBody := b.MaxBody
	if maxBody <= 0 {
		maxBody = 2
	}

	headAtoms, err := b.instantiateModes(b.Head, maxVars)
	if err != nil {
		return nil, err
	}
	bodyAtoms, err := b.instantiateModes(b.Body, maxVars)
	if err != nil {
		return nil, err
	}

	// Build the body alphabet: positive, optionally negated, plus
	// comparisons.
	var alphabet []bodyLit
	for _, ba := range bodyAtoms {
		alphabet = append(alphabet, bodyLit{lit: asp.PosLit(ba.atom), varType: ba.varType})
		if b.AllowNegation {
			alphabet = append(alphabet, bodyLit{lit: asp.Neg(ba.atom), varType: ba.varType})
		}
	}
	for _, cs := range b.Comparisons {
		for v := 0; v < maxVars; v++ {
			vn := varName(v)
			for _, op := range cs.Ops {
				for _, val := range cs.Values {
					alphabet = append(alphabet, bodyLit{
						lit:     asp.Cmp(asp.Variable{Name: vn}, op, val),
						varType: map[string]string{vn: cs.Type},
					})
				}
			}
		}
		if b.VarComparisons {
			for i := 0; i < maxVars; i++ {
				for j := 0; j < maxVars; j++ {
					if i == j {
						continue
					}
					vi, vj := varName(i), varName(j)
					for _, op := range cs.Ops {
						alphabet = append(alphabet, bodyLit{
							lit:     asp.Cmp(asp.Variable{Name: vi}, op, asp.Variable{Name: vj}),
							varType: map[string]string{vi: cs.Type, vj: cs.Type},
						})
					}
				}
			}
		}
	}

	var heads []*headAtom
	for i := range headAtoms {
		heads = append(heads, &headAtoms[i])
	}
	if b.AllowConstraints {
		heads = append(heads, nil) // headless
	}

	seen := make(map[string]struct{})
	var out []Candidate
	var keys []string // keys[i] is out[i].Rule.String(), computed once for dedup
	addRule := func(head *headAtom, body []bodyLit) {
		if head == nil && len(body) == 0 {
			return // the empty constraint would reject every model
		}
		if b.RequireBody && len(body) == 0 {
			return
		}
		r := asp.Rule{}
		if head != nil {
			h := head.atom
			r.Head = &h
		}
		types := make(map[string]string)
		if head != nil {
			for v, ty := range head.varType {
				types[v] = ty
			}
		}
		for _, bl := range body {
			for v, ty := range bl.varType {
				if t0, ok := types[v]; ok && t0 != ty {
					return // type clash
				}
				types[v] = ty
			}
			r.Body = append(r.Body, bl.lit)
		}
		if len(types) > maxVars {
			return
		}
		if asp.CheckSafety(r) != nil {
			return
		}
		canon := canonicalizeRule(r)
		key := canon.String()
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		cost := len(canon.Body)
		if canon.Head != nil {
			cost++
		}
		if cost == 0 {
			cost = 1
		}
		out = append(out, Candidate{Rule: canon, Cost: cost})
		keys = append(keys, key)
	}

	// Enumerate bodies of size 0..maxBody as non-decreasing index tuples
	// (order in a body is irrelevant).
	var rec func(start int, body []bodyLit, head *headAtom)
	rec = func(start int, body []bodyLit, head *headAtom) {
		addRule(head, body)
		if len(body) == maxBody {
			return
		}
		for i := start; i < len(alphabet); i++ {
			rec(i+1, append(body, alphabet[i]), head)
		}
	}
	for _, h := range heads {
		rec(0, nil, h)
	}

	// Sort by (cost, text) via a permutation over the dedup keys — the
	// key IS the canonical rule text, so no re-rendering per comparison.
	perm := make([]int, len(out))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		pi, pj := perm[i], perm[j]
		if out[pi].Cost != out[pj].Cost {
			return out[pi].Cost < out[pj].Cost
		}
		return keys[pi] < keys[pj]
	})
	sorted := make([]Candidate, len(out))
	for i, p := range perm {
		sorted[i] = out[p]
	}
	statSpaceBuilt.Inc()
	return sorted, nil
}

type headAtom struct {
	atom    asp.Atom
	varType map[string]string
}

// instantiateModes expands mode atoms into concrete atoms: constant
// placeholders take every pool value, variable placeholders take every
// variable name V1..Vmax (all combinations).
func (b Bias) instantiateModes(modes []ModeAtom, maxVars int) ([]headAtom, error) {
	var out []headAtom
	for _, m := range modes {
		choices := make([][]asp.Term, len(m.Args))
		for i, a := range m.Args {
			switch a.Kind {
			case ArgConst:
				pool := b.Constants[a.Type]
				if len(pool) == 0 {
					return nil, fmt.Errorf("ilasp: mode %s uses const(%s) but the bias has no constants of that type", m, a.Type)
				}
				choices[i] = pool
			case ArgVar:
				vars := make([]asp.Term, maxVars)
				for v := 0; v < maxVars; v++ {
					vars[v] = asp.Variable{Name: varName(v)}
				}
				choices[i] = vars
			default:
				return nil, fmt.Errorf("ilasp: mode %s has an argument with no kind", m)
			}
		}
		cartesian(choices, func(args []asp.Term) {
			varType := make(map[string]string)
			for i, t := range args {
				if v, ok := t.(asp.Variable); ok {
					varType[v.Name] = m.Args[i].Type
				}
			}
			atomArgs := make([]asp.Term, len(args))
			copy(atomArgs, args)
			out = append(out, headAtom{
				atom:    asp.Atom{Predicate: m.Predicate, Args: atomArgs},
				varType: varType,
			})
		})
	}
	return out, nil
}

// cartesian invokes f for every combination of one term per slot.
func cartesian(choices [][]asp.Term, f func([]asp.Term)) {
	if len(choices) == 0 {
		f(nil)
		return
	}
	idx := make([]int, len(choices))
	buf := make([]asp.Term, len(choices))
	for {
		for i, j := range idx {
			buf[i] = choices[i][j]
		}
		f(buf)
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(choices[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// canonicalizeRule renames variables in first-occurrence order (scanning
// the head, then body literals in sorted masked order) and sorts body
// literals, so that alpha-equivalent rules share a key.
func canonicalizeRule(r asp.Rule) asp.Rule {
	// Sort body by variable-masked rendering for a stable literal order.
	body := append([]asp.Literal(nil), r.Body...)
	sort.Slice(body, func(i, j int) bool {
		return maskedLiteral(body[i]) < maskedLiteral(body[j])
	})
	out := asp.Rule{Head: r.Head, Body: body}

	rename := make(asp.Binding)
	counter := 0
	var renameTerm func(t asp.Term) asp.Term
	renameTerm = func(t asp.Term) asp.Term {
		switch tt := t.(type) {
		case asp.Variable:
			if nv, ok := rename[tt.Name]; ok {
				return nv
			}
			nv := asp.Variable{Name: varName(counter)}
			counter++
			rename[tt.Name] = nv
			return nv
		case asp.Compound:
			args := make([]asp.Term, len(tt.Args))
			for i, a := range tt.Args {
				args[i] = renameTerm(a)
			}
			return asp.Compound{Functor: tt.Functor, Args: args}
		case asp.Arith:
			return asp.Arith{Op: tt.Op, L: renameTerm(tt.L), R: renameTerm(tt.R)}
		default:
			return t
		}
	}
	renameAtom := func(a asp.Atom) asp.Atom {
		args := make([]asp.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = renameTerm(t)
		}
		return asp.Atom{Predicate: a.Predicate, Args: args}
	}
	if out.Head != nil {
		h := renameAtom(*out.Head)
		out.Head = &h
	}
	for i, l := range out.Body {
		if l.IsCmp {
			out.Body[i] = asp.Literal{IsCmp: true, Op: l.Op, Lhs: renameTerm(l.Lhs), Rhs: renameTerm(l.Rhs)}
			continue
		}
		out.Body[i] = asp.Literal{Atom: renameAtom(l.Atom), Negated: l.Negated}
	}
	return out
}

// maskedLiteral renders a literal with variable names replaced by "_",
// used to order body literals independently of naming.
func maskedLiteral(l asp.Literal) string {
	var mask func(t asp.Term) string
	mask = func(t asp.Term) string {
		switch tt := t.(type) {
		case asp.Variable:
			return "_"
		case asp.Compound:
			parts := make([]string, len(tt.Args))
			for i, a := range tt.Args {
				parts[i] = mask(a)
			}
			return tt.Functor + "(" + strings.Join(parts, ",") + ")"
		case asp.Arith:
			return "(" + mask(tt.L) + tt.Op.String() + mask(tt.R) + ")"
		default:
			return t.String()
		}
	}
	if l.IsCmp {
		// The "~~" prefix sorts comparisons after atom literals, keeping
		// the guard-style reading "atoms first, comparisons last".
		return "~~" + mask(l.Lhs) + l.Op.String() + mask(l.Rhs)
	}
	s := l.Atom.Predicate
	parts := make([]string, len(l.Atom.Args))
	for i, a := range l.Atom.Args {
		parts[i] = mask(a)
	}
	if len(parts) > 0 {
		s += "(" + strings.Join(parts, ",") + ")"
	}
	if l.Negated {
		s = "~" + s
	}
	return s
}
