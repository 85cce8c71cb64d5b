package asp

import (
	"fmt"
	"slices"
)

// EvalRule evaluates a single rule against a fixed interpretation: it
// returns every head instance derivable in one step, with positive body
// literals matched against the interpretation, negative literals checked
// absent from it, and comparisons evaluated. The rule must be safe.
//
// This is the workhorse of the learner's fast path for non-recursive
// hypothesis rules: when a candidate rule's body only references
// background-derived predicates, its contribution to an answer set is
// exactly EvalRule(r, AS(background ∪ context)).
//
// Callers evaluating many rules against the same model, or the same rule
// against many models, should use ModelIndex and EvalPrepared to amortize
// the per-call model indexing and safety check.
func EvalRule(r Rule, model *AnswerSet) ([]Atom, error) {
	return NewModelIndex(model).EvalRule(r)
}

// ModelIndex is a predicate-indexed view of an answer set for repeated
// one-step rule evaluation. Building the index walks the model once;
// every evaluation after that probes by predicate.
type ModelIndex struct {
	model  *AnswerSet
	byPred map[string][]Atom
}

// NewModelIndex indexes an answer set by predicate. Each predicate's
// atoms follow the order of their keys, so evaluation output does not
// depend on how the answer set was built; no atom is rendered.
func NewModelIndex(m *AnswerSet) *ModelIndex {
	keys := make([]string, 0, len(m.atoms))
	for k := range m.atoms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ix := &ModelIndex{model: m, byPred: make(map[string][]Atom)}
	for _, k := range keys {
		a := m.atoms[k]
		ix.byPred[a.Predicate] = append(ix.byPred[a.Predicate], a)
	}
	return ix
}

// Model returns the indexed answer set.
func (ix *ModelIndex) Model() *AnswerSet { return ix.model }

// EvalRule checks the rule (no choice rules, safety) and evaluates it
// against the indexed model.
func (ix *ModelIndex) EvalRule(r Rule) ([]Atom, error) {
	if r.IsChoice() {
		return nil, fmt.Errorf("asp: EvalRule does not support choice rules")
	}
	if err := CheckSafety(r); err != nil {
		return nil, err
	}
	return ix.EvalPrepared(r)
}

// EvalPrepared evaluates a rule already known to be safe and not a choice
// rule (e.g. checked once by the caller before an evaluation loop).
func (ix *ModelIndex) EvalPrepared(r Rule) ([]Atom, error) {
	return NewEvaluator().EvalPrepared(ix, r)
}

// Evaluator owns the scratch state of one-step rule evaluation so that
// a loop of EvalPrepared calls allocates only for the derived head atoms
// it returns: a trail-based binding replaces a per-candidate map clone,
// done-flags over body literals replace the per-step remaining-slice
// rebuild, negative literals probe the model through a reusable key
// buffer, and derived heads are deduplicated by structural comparison
// instead of string keys.
//
// An Evaluator is not safe for concurrent use; give each worker its own.
type Evaluator struct {
	tr   bindTrail
	done []bool
	// deferred[i] is the depth (literals remaining) at which positive
	// literal i was found blocked on an unbound arithmetic argument, or 0;
	// the picker skips it at that depth only.
	deferred []int
	out      []Atom
	key      []byte
}

// NewEvaluator returns an Evaluator ready for EvalPrepared loops.
func NewEvaluator() *Evaluator {
	return &Evaluator{tr: bindTrail{b: make(Binding, 8)}}
}

// EvalPrepared evaluates a safe, non-choice rule against the indexed
// model. The returned slice is the Evaluator's reusable buffer: it is
// valid only until the next call; callers that retain atoms must copy
// them.
func (ev *Evaluator) EvalPrepared(ix *ModelIndex, r Rule) ([]Atom, error) {
	n := len(r.Body)
	ev.done = grow(ev.done, n)
	ev.deferred = grow(ev.deferred, n)
	ev.out = ev.out[:0]
	ev.tr.undo(0)
	ev.tr.blocked = false
	if err := ev.step(ix, r, n); err != nil {
		return nil, err
	}
	return ev.out, nil
}

func (ev *Evaluator) step(ix *ModelIndex, r Rule, remaining int) error {
	if remaining == 0 {
		return ev.emit(r)
	}
	// Pick the next processable literal: positive atoms enumerate, ready
	// comparisons filter, binder equalities bind, ground negatives check.
	// A positive atom deferred at this depth waits for a deeper one.
	b := ev.tr.b
	pick := -1
	kind := -1
	for i := range r.Body {
		if ev.done[i] {
			continue
		}
		l := &r.Body[i]
		switch {
		case !l.IsCmp && !l.Negated:
			if pick == -1 && ev.deferred[i] != remaining {
				pick, kind = i, 0
			}
		case l.IsCmp:
			if unboundVarCount(l.Lhs, b) == 0 && unboundVarCount(l.Rhs, b) == 0 {
				pick, kind = i, 2
			} else if l.Op == CmpEq {
				if _, _, ok := binderSides(*l, b); ok {
					pick, kind = i, 1
				}
			}
		default: // negated
			if pick == -1 {
				ground := true
				for _, t := range l.Atom.Args {
					if unboundVarCount(t, b) > 0 {
						ground = false
						break
					}
				}
				if ground {
					pick, kind = i, 3
				}
			}
		}
		if kind == 1 || kind == 2 {
			break
		}
	}
	if pick == -1 {
		return fmt.Errorf("asp: EvalRule stuck on rule %q", r.String())
	}
	l := r.Body[pick]
	ev.done[pick] = true
	defer func() { ev.done[pick] = false }()
	switch kind {
	case 0:
		facts := ix.byPred[l.Atom.Predicate]
		for fi := range facts {
			m := ev.tr.mark()
			if matchAtomTrail(l.Atom, facts[fi], &ev.tr) {
				if err := ev.step(ix, r, remaining-1); err != nil {
					ev.tr.undo(m)
					return err
				}
			}
			ev.tr.undo(m)
			if ev.tr.blocked {
				// An arithmetic argument needs a variable that another
				// literal binds, so no fact can have matched: pick again
				// with this literal deferred at this depth.
				ev.tr.blocked = false
				ev.done[pick] = false
				ev.deferred[pick] = remaining
				err := ev.step(ix, r, remaining)
				ev.deferred[pick] = 0
				return err
			}
		}
		return nil
	case 1:
		v, expr, ok := binderSides(l, ev.tr.b)
		if !ok {
			return fmt.Errorf("asp: EvalRule lost binder equality in rule %q", r.String())
		}
		val, err := EvalArith(substTerm(expr, ev.tr.b))
		if err != nil {
			return err
		}
		m := ev.tr.mark()
		ev.tr.bind(v.Name, val)
		err = ev.step(ix, r, remaining-1)
		ev.tr.undo(m)
		return err
	case 2:
		ok, err := EvalCmp(Literal{IsCmp: true, Op: l.Op,
			Lhs: substTerm(l.Lhs, ev.tr.b), Rhs: substTerm(l.Rhs, ev.tr.b), Pos: l.Pos})
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return ev.step(ix, r, remaining-1)
	default:
		// Ground negative literal: key the substituted, evaluated atom
		// into the reusable buffer and probe the model.
		key := append(ev.key[:0], l.Atom.Predicate...)
		key = append(key, '/')
		for _, t := range l.Atom.Args {
			val, err := EvalArith(substTerm(t, ev.tr.b))
			if err != nil {
				ev.key = key
				return err
			}
			key = appendTermKey(key, val)
			key = append(key, ';')
		}
		ev.key = key
		if _, ok := ix.model.atoms[string(key)]; ok { // no allocation
			return nil
		}
		return ev.step(ix, r, remaining-1)
	}
}

// emit records the derived instance of a satisfied body: the
// substituted, evaluated head, or the _violated marker for constraints.
// Duplicates are dropped by structural comparison (derived sets are
// small; a linear scan beats keying every head).
func (ev *Evaluator) emit(r Rule) error {
	var atom Atom
	if r.Head == nil {
		// Constraint body satisfied: represent with a marker atom so
		// callers can detect violation.
		atom = Atom{Predicate: "_violated"}
	} else if plainArgs(r.Head.Args) {
		// Ground and arithmetic-free: the head is its own instance.
		atom = *r.Head
	} else {
		args := make([]Term, len(r.Head.Args))
		for i, t := range r.Head.Args {
			val, err := EvalArith(substTerm(t, ev.tr.b))
			if err != nil {
				return err
			}
			args[i] = val
		}
		atom = Atom{Predicate: r.Head.Predicate, Args: args}
	}
	if !atom.Ground() {
		return fmt.Errorf("asp: non-ground head %s in EvalRule", atom)
	}
	for i := range ev.out {
		if AtomsEqual(ev.out[i], atom) {
			return nil
		}
	}
	ev.out = append(ev.out, atom)
	return nil
}

// plainArgs reports whether every term is ground and arithmetic-free,
// so no binding or evaluation changes it.
func plainArgs(ts []Term) bool {
	for _, t := range ts {
		switch x := t.(type) {
		case Constant, Integer:
		case Compound:
			if !plainArgs(x.Args) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// AtomsEqual reports whether two atoms are structurally identical
// (predicate and arguments; source positions are ignored, matching
// Atom.Key equality).
func AtomsEqual(a, b Atom) bool {
	if a.Predicate != b.Predicate || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !termEq(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// bindTrail is a mutable binding with an undo log: matching binds in
// place and backtracking truncates, avoiding a map clone per candidate
// fact.
type bindTrail struct {
	b     Binding
	names []string
	// blocked is set by a match that met an arithmetic argument with an
	// unbound variable; the caller resets it.
	blocked bool
}

func (t *bindTrail) bind(name string, val Term) {
	t.b[name] = val
	t.names = append(t.names, name)
}

func (t *bindTrail) mark() int { return len(t.names) }

func (t *bindTrail) undo(m int) {
	for i := len(t.names) - 1; i >= m; i-- {
		delete(t.b, t.names[i])
	}
	t.names = t.names[:m]
}

// matchAtomTrail unifies a (possibly non-ground) pattern atom against a
// ground fact, binding variables on the trail. On failure the caller must
// undo to its mark (partial bindings may remain).
func matchAtomTrail(pattern, fact Atom, tr *bindTrail) bool {
	if pattern.Predicate != fact.Predicate || len(pattern.Args) != len(fact.Args) {
		return false
	}
	for i := range pattern.Args {
		if !matchTermTrail(pattern.Args[i], fact.Args[i], tr) {
			return false
		}
	}
	return true
}

func matchTermTrail(pattern, ground Term, tr *bindTrail) bool {
	switch pt := pattern.(type) {
	case Variable:
		if bound, ok := tr.b[pt.Name]; ok {
			return termEq(bound, ground)
		}
		tr.bind(pt.Name, ground)
		return true
	case Arith:
		// Arithmetic in a body pattern is evaluated, never enumerated:
		// with a variable still unbound the literal is blocked.
		sub := pt.substitute(tr.b)
		if !sub.Ground() {
			tr.blocked = true
			return false
		}
		val, err := EvalArith(sub)
		if err != nil {
			return false
		}
		return termEq(val, ground)
	case Compound:
		gt, ok := ground.(Compound)
		if !ok || gt.Functor != pt.Functor || len(gt.Args) != len(pt.Args) {
			return false
		}
		for i := range pt.Args {
			if !matchTermTrail(pt.Args[i], gt.Args[i], tr) {
				return false
			}
		}
		return true
	default:
		return TermsEqual(substTerm(pattern, tr.b), ground)
	}
}

// unboundVarCount counts variable occurrences of t not bound in b.
func unboundVarCount(t Term, b Binding) int {
	n := 0
	walkTermVars(t, func(v Variable) {
		if _, ok := b[v.Name]; !ok {
			n++
		}
	})
	return n
}

// binderSides recognizes a binder equality V = expr (or expr = V): an
// unbound variable on one side, the other side fully bound.
func binderSides(l Literal, b Binding) (Variable, Term, bool) {
	if vv, ok := l.Lhs.(Variable); ok {
		if _, bound := b[vv.Name]; !bound && unboundVarCount(l.Rhs, b) == 0 {
			return vv, l.Rhs, true
		}
	}
	if vv, ok := l.Rhs.(Variable); ok {
		if _, bound := b[vv.Name]; !bound && unboundVarCount(l.Lhs, b) == 0 {
			return vv, l.Lhs, true
		}
	}
	return Variable{}, nil, false
}
