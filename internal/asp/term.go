// Package asp implements a self-contained Answer Set Programming system:
// an abstract syntax for the language subset used by the AGENP paper
// (normal rules, constraints and choice rules with arithmetic and
// comparison built-ins), a parser, a dependency-ordered semi-naive
// grounder, and a stable-model solver.
//
// The package replaces the paper's dependency on the clingo system. Any
// program expressible in the paper's subset ("normal rules and
// constraints", Section II.A) is grounded and solved under the standard
// stable-model semantics.
package asp

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is a first-order term: a constant symbol, an integer, a variable,
// a compound term, or an arithmetic expression to be evaluated during
// grounding.
type Term interface {
	fmt.Stringer

	// Ground reports whether the term contains no variables.
	Ground() bool

	// collectVars appends the names of variables occurring in the term.
	collectVars(vars map[string]struct{})

	// substitute applies a binding to the term.
	substitute(b Binding) Term
}

// Constant is a symbolic constant, written as a lowercase identifier or a
// double-quoted string.
type Constant struct {
	Name string
	// Quoted marks constants that must be rendered with double quotes
	// (e.g. terminal tokens of a grammar embedded in ASP programs).
	Quoted bool
}

// Integer is an integer constant.
type Integer struct {
	Value int
}

// Variable is a first-order variable, written with a leading uppercase
// letter or underscore.
type Variable struct {
	Name string

	// Pos is the source position of this occurrence when parsed from
	// text; zero for programmatically built variables. It is ignored by
	// String, key and all equality checks.
	Pos Pos
}

// Compound is a function term f(t1, ..., tn) with n >= 1.
type Compound struct {
	Functor string
	Args    []Term
}

// ArithOp enumerates the arithmetic operators usable in terms.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "\\"
	default:
		return "?"
	}
}

// Arith is an arithmetic expression term (L op R). It is evaluated during
// grounding; a ground program never contains Arith terms.
type Arith struct {
	Op   ArithOp
	L, R Term
}

var (
	_ Term = Constant{}
	_ Term = Integer{}
	_ Term = Variable{}
	_ Term = Compound{}
	_ Term = Arith{}
)

func (c Constant) String() string {
	if c.Quoted {
		return quoteASP(c.Name)
	}
	return c.Name
}

// quoteASP renders a quoted constant exactly as the lexer reads it: only
// '"' and '\\' are escaped, every other byte (including control
// characters) passes through raw. Using Go-style \xNN escapes here would
// break print/re-parse stability, since the ASP lexer treats a
// backslash as "take the next byte literally".
func quoteASP(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', '\\':
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}
func (c Constant) Ground() bool                    { return true }
func (c Constant) collectVars(map[string]struct{}) {}

// substTerm is substitute without re-boxing terms the binding cannot
// change: constants and integers return the original interface value,
// variables return the stored binding (or the original), and compound
// terms fall back to substitute. Hot paths (matching, one-step
// evaluation) use this to avoid an interface allocation per probe.
func substTerm(t Term, b Binding) Term {
	switch x := t.(type) {
	case Constant, Integer:
		return t
	case Variable:
		if val, ok := b[x.Name]; ok {
			return val
		}
		return t
	}
	return t.substitute(b)
}

func (c Constant) substitute(Binding) Term { return c }

func (i Integer) String() string                  { return strconv.Itoa(i.Value) }
func (i Integer) Ground() bool                    { return true }
func (i Integer) collectVars(map[string]struct{}) {}
func (i Integer) substitute(Binding) Term         { return i }

func (v Variable) String() string                       { return v.Name }
func (v Variable) Ground() bool                         { return false }
func (v Variable) collectVars(vars map[string]struct{}) { vars[v.Name] = struct{}{} }
func (v Variable) substitute(b Binding) Term {
	if t, ok := b[v.Name]; ok {
		return t
	}
	return v
}

func (c Compound) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Functor + "(" + strings.Join(parts, ",") + ")"
}

func (c Compound) Ground() bool {
	for _, a := range c.Args {
		if !a.Ground() {
			return false
		}
	}
	return true
}

func (c Compound) collectVars(vars map[string]struct{}) {
	for _, a := range c.Args {
		a.collectVars(vars)
	}
}

func (c Compound) substitute(b Binding) Term {
	args := make([]Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.substitute(b)
	}
	return Compound{Functor: c.Functor, Args: args}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

func (a Arith) Ground() bool { return a.L.Ground() && a.R.Ground() }

func (a Arith) collectVars(vars map[string]struct{}) {
	a.L.collectVars(vars)
	a.R.collectVars(vars)
}

func (a Arith) substitute(b Binding) Term {
	return Arith{Op: a.Op, L: a.L.substitute(b), R: a.R.substitute(b)}
}

// Binding maps variable names to terms.
type Binding map[string]Term

// EvalArith evaluates a ground term to an integer or leaves it unchanged.
// It returns an error for arithmetic over non-integers or division by
// zero.
func EvalArith(t Term) (Term, error) {
	a, ok := t.(Arith)
	if !ok {
		if c, ok := t.(Compound); ok {
			args := make([]Term, len(c.Args))
			for i, x := range c.Args {
				ev, err := EvalArith(x)
				if err != nil {
					return nil, err
				}
				args[i] = ev
			}
			return Compound{Functor: c.Functor, Args: args}, nil
		}
		return t, nil
	}
	lt, err := EvalArith(a.L)
	if err != nil {
		return nil, err
	}
	rt, err := EvalArith(a.R)
	if err != nil {
		return nil, err
	}
	li, lok := lt.(Integer)
	ri, rok := rt.(Integer)
	if !lok || !rok {
		return nil, fmt.Errorf("arithmetic over non-integer terms %s %s %s", lt, a.Op, rt)
	}
	switch a.Op {
	case OpAdd:
		return Integer{Value: li.Value + ri.Value}, nil
	case OpSub:
		return Integer{Value: li.Value - ri.Value}, nil
	case OpMul:
		return Integer{Value: li.Value * ri.Value}, nil
	case OpDiv:
		if ri.Value == 0 {
			return nil, fmt.Errorf("division by zero in %s", a)
		}
		return Integer{Value: li.Value / ri.Value}, nil
	case OpMod:
		if ri.Value == 0 {
			return nil, fmt.Errorf("modulo by zero in %s", a)
		}
		return Integer{Value: li.Value % ri.Value}, nil
	default:
		return nil, fmt.Errorf("unknown arithmetic operator in %s", a)
	}
}

// TermKey returns a canonical string key for a term, usable as a map key.
func TermKey(t Term) string {
	var buf [64]byte
	return string(appendTermKey(buf[:0], t))
}

// appendTermKey appends the canonical key of a term to dst. It is the
// one term encoder: TermKey and Atom.Key render through it, and hot
// paths build map probes with it in a reusable buffer instead of
// allocating a string per lookup.
func appendTermKey(dst []byte, t Term) []byte {
	switch tt := t.(type) {
	case Constant:
		dst = append(dst, 'c')
		dst = append(dst, tt.Name...)
	case Integer:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, int64(tt.Value), 10)
	case Variable:
		dst = append(dst, 'v')
		dst = append(dst, tt.Name...)
	case Compound:
		dst = append(dst, 'f')
		dst = append(dst, tt.Functor...)
		dst = append(dst, '(')
		for _, a := range tt.Args {
			dst = appendTermKey(dst, a)
			dst = append(dst, ',')
		}
		dst = append(dst, ')')
	case Arith:
		dst = append(dst, 'a')
		dst = append(dst, tt.Op.String()...)
		dst = appendTermKey(dst, tt.L)
		dst = appendTermKey(dst, tt.R)
	case Range:
		dst = append(dst, 'r')
		dst = appendTermKey(dst, tt.Lo)
		dst = append(dst, ".."...)
		dst = appendTermKey(dst, tt.Hi)
	}
	return dst
}

// TermsEqual reports whether two terms are structurally identical.
func TermsEqual(a, b Term) bool { return termEq(a, b) }

// termEq is structural term equality without building string keys. It
// matches TermKey equality exactly (in particular, Constant.Quoted and
// Variable.Pos are ignored).
func termEq(a, b Term) bool {
	switch ta := a.(type) {
	case Constant:
		tb, ok := b.(Constant)
		return ok && ta.Name == tb.Name
	case Integer:
		tb, ok := b.(Integer)
		return ok && ta.Value == tb.Value
	case Variable:
		tb, ok := b.(Variable)
		return ok && ta.Name == tb.Name
	case Compound:
		tb, ok := b.(Compound)
		if !ok || ta.Functor != tb.Functor || len(ta.Args) != len(tb.Args) {
			return false
		}
		for i := range ta.Args {
			if !termEq(ta.Args[i], tb.Args[i]) {
				return false
			}
		}
		return true
	case Arith:
		tb, ok := b.(Arith)
		return ok && ta.Op == tb.Op && termEq(ta.L, tb.L) && termEq(ta.R, tb.R)
	default:
		return TermKey(a) == TermKey(b)
	}
}

// CompareTerms imposes a total order on ground terms: integers first (by
// value), then constants (lexicographic), then compound terms.
func CompareTerms(a, b Term) int {
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		return ra - rb
	}
	switch ta := a.(type) {
	case Integer:
		tb := b.(Integer)
		return ta.Value - tb.Value
	case Constant:
		tb := b.(Constant)
		return strings.Compare(ta.Name, tb.Name)
	case Compound:
		tb := b.(Compound)
		if c := strings.Compare(ta.Functor, tb.Functor); c != 0 {
			return c
		}
		if c := len(ta.Args) - len(tb.Args); c != 0 {
			return c
		}
		for i := range ta.Args {
			if c := CompareTerms(ta.Args[i], tb.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	default:
		return strings.Compare(TermKey(a), TermKey(b))
	}
}

func termRank(t Term) int {
	switch t.(type) {
	case Integer:
		return 0
	case Constant:
		return 1
	case Compound:
		return 2
	case Variable:
		return 3
	default:
		return 4
	}
}
