package asp

import "fmt"

// Range is an integer interval term `lo..hi` (clingo-style). A rule
// containing range terms stands for the family of rules obtained by
// substituting every integer of each interval; expansion happens before
// grounding and requires ground integer bounds.
type Range struct {
	Lo, Hi Term
}

var _ Term = Range{}

func (r Range) String() string { return fmt.Sprintf("%s..%s", r.Lo, r.Hi) }

// Ground reports whether the bounds are ground.
func (r Range) Ground() bool { return r.Lo.Ground() && r.Hi.Ground() }

func (r Range) collectVars(vars map[string]struct{}) {
	r.Lo.collectVars(vars)
	r.Hi.collectVars(vars)
}

func (r Range) substitute(b Binding) Term {
	return Range{Lo: r.Lo.substitute(b), Hi: r.Hi.substitute(b)}
}

// expandRanges rewrites every rule containing range terms into its
// instances. Rules without ranges are passed through unchanged.
func expandRanges(p *Program) (*Program, error) {
	needsWork := false
	for _, r := range p.Rules {
		if ruleHasRange(r) {
			needsWork = true
			break
		}
	}
	if !needsWork {
		return p, nil
	}
	out := &Program{Rules: make([]Rule, 0, len(p.Rules))}
	for _, r := range p.Rules {
		if !ruleHasRange(r) {
			out.Rules = append(out.Rules, r)
			continue
		}
		expanded, err := expandRule(r)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, expanded...)
	}
	return out, nil
}

func ruleHasRange(r Rule) bool {
	hasRange := false
	visitRuleTerms(r, func(t Term) {
		if _, ok := t.(Range); ok {
			hasRange = true
		}
	})
	return hasRange
}

// visitRuleTerms walks every term of the rule (not descending into
// compound arguments beyond what replaceFirstRange handles; the visit is
// recursive for detection).
func visitRuleTerms(r Rule, visit func(Term)) {
	var walk func(t Term)
	walk = func(t Term) {
		visit(t)
		switch tt := t.(type) {
		case Compound:
			for _, a := range tt.Args {
				walk(a)
			}
		case Arith:
			walk(tt.L)
			walk(tt.R)
		case Range:
			walk(tt.Lo)
			walk(tt.Hi)
		}
	}
	if r.Head != nil {
		for _, t := range r.Head.Args {
			walk(t)
		}
	}
	for _, a := range r.Choice {
		for _, t := range a.Args {
			walk(t)
		}
	}
	for _, l := range r.Body {
		if l.IsCmp {
			walk(l.Lhs)
			walk(l.Rhs)
			continue
		}
		for _, t := range l.Atom.Args {
			walk(t)
		}
	}
}

// expandRule replaces the first range term with each of its values and
// recurses until no ranges remain (cartesian expansion).
func expandRule(r Rule) ([]Rule, error) {
	lo, hi, found, err := firstRangeBounds(r)
	if err != nil {
		return nil, err
	}
	if !found {
		return []Rule{r}, nil
	}
	if hi < lo {
		return nil, nil // empty interval: the rule family is empty
	}
	if hi-lo > 100_000 {
		return nil, fmt.Errorf("asp: range %d..%d too large to expand", lo, hi)
	}
	var out []Rule
	for v := lo; v <= hi; v++ {
		inst := substituteFirstRange(r, Integer{Value: v})
		rest, err := expandRule(inst)
		if err != nil {
			return nil, err
		}
		out = append(out, rest...)
	}
	return out, nil
}

// firstRangeBounds locates the first range term and evaluates its
// bounds.
func firstRangeBounds(r Rule) (lo, hi int, found bool, err error) {
	visitRuleTerms(r, func(t Term) {
		if found || err != nil {
			return
		}
		rng, ok := t.(Range)
		if !ok {
			return
		}
		loT, e := EvalArith(rng.Lo)
		if e != nil {
			err = e
			return
		}
		hiT, e := EvalArith(rng.Hi)
		if e != nil {
			err = e
			return
		}
		loI, okLo := loT.(Integer)
		hiI, okHi := hiT.(Integer)
		if !okLo || !okHi {
			err = fmt.Errorf("asp: range bounds must be ground integers, got %s", rng)
			return
		}
		lo, hi, found = loI.Value, hiI.Value, true
	})
	return lo, hi, found, err
}

// substituteFirstRange replaces the first range term encountered (in the
// same traversal order as firstRangeBounds) with the value.
func substituteFirstRange(r Rule, value Term) Rule {
	done := false
	var rewrite func(t Term) Term
	rewrite = func(t Term) Term {
		if done {
			return t
		}
		switch tt := t.(type) {
		case Range:
			done = true
			return value
		case Compound:
			args := make([]Term, len(tt.Args))
			for i, a := range tt.Args {
				args[i] = rewrite(a)
			}
			return Compound{Functor: tt.Functor, Args: args}
		case Arith:
			return Arith{Op: tt.Op, L: rewrite(tt.L), R: rewrite(tt.R)}
		default:
			return t
		}
	}
	rewriteAtom := func(a Atom) Atom {
		args := make([]Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = rewrite(t)
		}
		return Atom{Predicate: a.Predicate, Args: args, Pos: a.Pos}
	}
	out := Rule{Pos: r.Pos}
	if r.Head != nil {
		h := rewriteAtom(*r.Head)
		out.Head = &h
	}
	if len(r.Choice) > 0 {
		out.Choice = make([]Atom, len(r.Choice))
		for i, a := range r.Choice {
			out.Choice[i] = rewriteAtom(a)
		}
	}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		if l.IsCmp {
			out.Body[i] = Literal{IsCmp: true, Op: l.Op, Lhs: rewrite(l.Lhs), Rhs: rewrite(l.Rhs), Pos: l.Pos}
			continue
		}
		out.Body[i] = Literal{Atom: rewriteAtom(l.Atom), Negated: l.Negated, Pos: l.Pos}
	}
	return out
}
