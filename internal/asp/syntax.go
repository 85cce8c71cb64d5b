package asp

import (
	"fmt"
	"strings"
)

// Atom is a predicate applied to terms. A propositional atom has no
// arguments.
type Atom struct {
	Predicate string
	Args      []Term

	// Pos is the source position of the predicate name when the atom was
	// parsed from text; zero for programmatically built atoms. It is
	// ignored by String, Key and all equality checks.
	Pos Pos
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Predicate: pred, Args: args}
}

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Predicate
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Predicate + "(" + strings.Join(parts, ",") + ")"
}

// Ground reports whether all argument terms are ground.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// Key returns a canonical encoding of the atom for hashing/equality
// (appendAtomKey's bytes).
func (a Atom) Key() string {
	var buf [64]byte
	return string(appendAtomKey(buf[:0], a))
}

// AppendKey appends the atom's key, the bytes Key returns, to dst: a map
// probe through string(dst) then costs no allocation.
func (a Atom) AppendKey(dst []byte) []byte { return appendAtomKey(dst, a) }

// Substitute applies a binding to all argument terms.
func (a Atom) Substitute(b Binding) Atom {
	if len(b) == 0 || len(a.Args) == 0 {
		return a
	}
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.substitute(b)
	}
	return Atom{Predicate: a.Predicate, Args: args, Pos: a.Pos}
}

// Variables returns the set of variable names occurring in the atom.
func (a Atom) Variables() map[string]struct{} {
	vars := make(map[string]struct{})
	for _, t := range a.Args {
		t.collectVars(vars)
	}
	return vars
}

// CmpOp enumerates comparison operators for built-in literals.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota + 1
	CmpNeq
	CmpLt
	CmpLeq
	CmpGt
	CmpGeq
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLeq:
		return "<="
	case CmpGt:
		return ">"
	case CmpGeq:
		return ">="
	default:
		return "?"
	}
}

// Literal is a body element: either an atom literal (possibly under
// negation as failure) or a comparison between two terms.
type Literal struct {
	// Comparison literal when IsCmp is true: Lhs Op Rhs.
	IsCmp bool
	Op    CmpOp
	Lhs   Term
	Rhs   Term

	// Atom literal otherwise.
	Atom    Atom
	Negated bool // negation as failure ("not")

	// Pos is the source position of the literal's first token when parsed
	// from text; zero otherwise. Ignored by String and equality.
	Pos Pos
}

// PosLit builds a positive atom literal.
func PosLit(a Atom) Literal { return Literal{Atom: a} }

// Neg builds a negation-as-failure literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// Cmp builds a comparison literal.
func Cmp(l Term, op CmpOp, r Term) Literal {
	return Literal{IsCmp: true, Op: op, Lhs: l, Rhs: r}
}

func (l Literal) String() string {
	if l.IsCmp {
		return fmt.Sprintf("%s %s %s", l.Lhs, l.Op, l.Rhs)
	}
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Substitute applies a binding to the literal.
func (l Literal) Substitute(b Binding) Literal {
	if l.IsCmp {
		return Literal{IsCmp: true, Op: l.Op, Lhs: l.Lhs.substitute(b), Rhs: l.Rhs.substitute(b), Pos: l.Pos}
	}
	return Literal{Atom: l.Atom.Substitute(b), Negated: l.Negated, Pos: l.Pos}
}

// Variables returns the variable names occurring in the literal.
func (l Literal) Variables() map[string]struct{} {
	vars := make(map[string]struct{})
	if l.IsCmp {
		l.Lhs.collectVars(vars)
		l.Rhs.collectVars(vars)
		return vars
	}
	for _, t := range l.Atom.Args {
		t.collectVars(vars)
	}
	return vars
}

// EvalCmp evaluates a ground comparison literal. Arithmetic subterms are
// evaluated first. Comparisons other than = and != require both sides to
// evaluate to integers or both to constants (compared lexicographically).
func EvalCmp(l Literal) (bool, error) {
	if !l.IsCmp {
		return false, fmt.Errorf("EvalCmp on atom literal %s", l)
	}
	lt, err := EvalArith(l.Lhs)
	if err != nil {
		return false, err
	}
	rt, err := EvalArith(l.Rhs)
	if err != nil {
		return false, err
	}
	if !lt.Ground() || !rt.Ground() {
		return false, fmt.Errorf("comparison %s is not ground", l)
	}
	c := CompareTerms(lt, rt)
	switch l.Op {
	case CmpEq:
		return c == 0, nil
	case CmpNeq:
		return c != 0, nil
	case CmpLt:
		return c < 0, nil
	case CmpLeq:
		return c <= 0, nil
	case CmpGt:
		return c > 0, nil
	case CmpGeq:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("unknown comparison operator in %s", l)
	}
}

// Rule is a normal rule, a constraint, or a choice rule.
//
//   - Normal rule: Head != nil, Choice empty.
//   - Constraint:  Head == nil, Choice empty.
//   - Choice rule: Choice non-empty ({a1; ...; an} :- body). Each atom in
//     the head may independently be chosen true when the body holds.
type Rule struct {
	Head   *Atom
	Choice []Atom
	Body   []Literal

	// Pos is the source position of the rule's first token when parsed
	// from text; zero otherwise. Ignored by String, Key and equality.
	Pos Pos
}

// NewRule builds a normal rule.
func NewRule(head Atom, body ...Literal) Rule {
	h := head
	return Rule{Head: &h, Body: body}
}

// NewConstraint builds a constraint rule (headless).
func NewConstraint(body ...Literal) Rule {
	return Rule{Body: body}
}

// NewFact builds a rule with an empty body.
func NewFact(head Atom) Rule {
	h := head
	return Rule{Head: &h}
}

// IsConstraint reports whether the rule is a constraint.
func (r Rule) IsConstraint() bool { return r.Head == nil && len(r.Choice) == 0 }

// IsChoice reports whether the rule is a choice rule.
func (r Rule) IsChoice() bool { return len(r.Choice) > 0 }

// IsFact reports whether the rule is a ground fact.
func (r Rule) IsFact() bool {
	return r.Head != nil && len(r.Body) == 0 && r.Head.Ground()
}

func (r Rule) String() string {
	var head string
	switch {
	case r.IsChoice():
		parts := make([]string, len(r.Choice))
		for i, a := range r.Choice {
			parts[i] = a.String()
		}
		head = "{" + strings.Join(parts, "; ") + "}"
	case r.Head != nil:
		head = r.Head.String()
	}
	if len(r.Body) == 0 {
		return head + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	if head == "" {
		return ":- " + strings.Join(parts, ", ") + "."
	}
	return head + " :- " + strings.Join(parts, ", ") + "."
}

// Substitute applies a binding to the whole rule.
func (r Rule) Substitute(b Binding) Rule {
	out := Rule{Pos: r.Pos}
	if r.Head != nil {
		h := r.Head.Substitute(b)
		out.Head = &h
	}
	if len(r.Choice) > 0 {
		out.Choice = make([]Atom, len(r.Choice))
		for i, a := range r.Choice {
			out.Choice[i] = a.Substitute(b)
		}
	}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		out.Body[i] = l.Substitute(b)
	}
	return out
}

// Variables returns all variable names in the rule.
func (r Rule) Variables() map[string]struct{} {
	vars := make(map[string]struct{})
	if r.Head != nil {
		for _, t := range r.Head.Args {
			t.collectVars(vars)
		}
	}
	for _, a := range r.Choice {
		for _, t := range a.Args {
			t.collectVars(vars)
		}
	}
	for _, l := range r.Body {
		for v := range l.Variables() {
			vars[v] = struct{}{}
		}
	}
	return vars
}

// Key returns a canonical encoding of a rule (after normalizing nothing;
// rules differing only in variable names have different keys).
func (r Rule) Key() string {
	return r.String()
}

// Program is a list of rules.
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program {
	return &Program{Rules: rules}
}

// Add appends rules to the program.
func (p *Program) Add(rules ...Rule) {
	p.Rules = append(p.Rules, rules...)
}

// Extend appends all rules of another program.
func (p *Program) Extend(q *Program) {
	if q == nil {
		return
	}
	p.Rules = append(p.Rules, q.Rules...)
}

// Clone returns a shallow copy of the program (rules are immutable by
// convention).
func (p *Program) Clone() *Program {
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	return &Program{Rules: rules}
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Predicates returns the set of predicate/arity signatures occurring in
// the program, formatted "name/arity".
func (p *Program) Predicates() map[string]struct{} {
	sigs := make(map[string]struct{})
	add := func(a Atom) { sigs[fmt.Sprintf("%s/%d", a.Predicate, len(a.Args))] = struct{}{} }
	for _, r := range p.Rules {
		if r.Head != nil {
			add(*r.Head)
		}
		for _, a := range r.Choice {
			add(a)
		}
		for _, l := range r.Body {
			if !l.IsCmp {
				add(l.Atom)
			}
		}
	}
	return sigs
}
