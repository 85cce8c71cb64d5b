package ilasp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"agenp/internal/asp"
)

// preparedSpace is a hypothesis space made ready for signature builds
// once, not once per build: the candidates, the outcome of the
// per-candidate validation vectorize applies, the space's part of the
// independence check, and each candidate's guards. It is read-only after
// prepare, so a memoized one (biasSpace) is shared by concurrent
// learners.
type preparedSpace struct {
	cands []Candidate
	// rules[c] is cands[c].Rule: a taskOracle hands out rules[c:c+1] as
	// candidate c's one instance.
	rules []asp.Rule
	// invalid is the error of the first candidate, in space order, that
	// one-step evaluation does not take: a choice rule or an unsafe rule.
	invalid error
	// heads holds the candidates' head predicates, and recursive is the
	// error of the first candidate whose body reads one
	// (checkIndependence).
	heads     map[string]struct{}
	recursive error
	// guardIDs interns the space's guards by guard key (appendGuardKey):
	// ground guard atoms (guardAtoms) and the pattern guards of decided
	// candidates. masks lists, per predicate, the variable positions of
	// its guards (0 for a ground atom), each once: the keys vectorize
	// probes for a model atom. guards[c] holds candidate c's
	// guards as bits over guardIDs, nil when c has none or the space was
	// prepared without guards.
	guardIDs map[string]int
	masks    map[string][]uint64
	guards   []sigWords
	// decided[c] reports that candidate c's guards are its whole body
	// (decides): where they all hold, c derives exactly its head, or
	// fires, and elsewhere nothing. undecided lists the other candidates,
	// the ones vectorize evaluates.
	decided   []bool
	undecided []int
}

// prepare readies a space for signature builds. own states that every
// candidate is its own instance in every example, as for a taskOracle:
// a guard is read off the candidate, so only then does it guard the
// instances, and only then are guards interned and candidates decided.
func prepare(cands []Candidate, own bool) *preparedSpace {
	ps := &preparedSpace{cands: cands, rules: make([]asp.Rule, len(cands)), heads: make(map[string]struct{}),
		guards: make([]sigWords, len(cands)), decided: make([]bool, len(cands))}
	for i := range cands {
		r := &cands[i].Rule
		ps.rules[i] = *r
		if r.Head != nil {
			ps.heads[r.Head.Predicate] = struct{}{}
		}
		if ps.invalid != nil {
			continue
		}
		if r.IsChoice() {
			ps.invalid = fmt.Errorf("ilasp: evaluating candidate %q: asp: EvalRule does not support choice rules", r.String())
		} else if err := asp.CheckSafety(*r); err != nil {
			ps.invalid = fmt.Errorf("ilasp: evaluating candidate %q: %w", r.String(), err)
		}
	}
recursion:
	for i := range cands {
		body := cands[i].Rule.Body
		for j := range body {
			if l := &body[j]; !l.IsCmp {
				if _, clash := ps.heads[l.Atom.Predicate]; clash {
					ps.recursive = fmt.Errorf("ilasp: candidate %q is recursive over %s; use Learn", cands[i].Rule.String(), l.Atom.Predicate)
					break recursion
				}
			}
		}
	}
	if !own || ps.invalid != nil {
		for i := range cands {
			ps.undecided = append(ps.undecided, i)
		}
		return ps
	}
	ids := make([][]int, len(cands))
	ps.guardIDs = make(map[string]int)
	ps.masks = make(map[string][]uint64)
	var key []byte
	intern := func(ci int, a asp.Atom, mask uint64) {
		key, _ = appendGuardKey(key[:0], a, mask, nil)
		id, ok := ps.guardIDs[string(key)]
		if !ok {
			id = len(ps.guardIDs)
			ps.guardIDs[string(key)] = id
			if !slices.Contains(ps.masks[a.Predicate], mask) {
				ps.masks[a.Predicate] = append(ps.masks[a.Predicate], mask)
			}
		}
		ids[ci] = append(ids[ci], id)
	}
	for ci := range cands {
		r := &cands[ci].Rule
		for _, a := range guardAtoms(*r) {
			intern(ci, a, 0)
		}
		if !decides(*r) {
			ps.undecided = append(ps.undecided, ci)
			continue
		}
		ps.decided[ci] = true
		for j := range r.Body {
			if a := r.Body[j].Atom; !a.Ground() {
				intern(ci, a, varMask(a))
			}
		}
	}
	for ci, gs := range ids {
		if len(gs) == 0 {
			continue
		}
		ps.guards[ci] = newSig(len(ps.guardIDs))
		for _, id := range gs {
			ps.guards[ci].set(id)
		}
	}
	return ps
}

// blindVar stands for every variable in a guard key.
var blindVar asp.Term = asp.Variable{}

// appendGuardKey appends to dst the guard key of atom a with the
// arguments in mask read as variables: a's asp key with each of them
// written as the nameless variable. For a ground atom and mask 0 this is
// its asp key; for a pattern guard, with mask its variable positions
// (varMask), it is a variable-blind key, which a model atom's key with
// the same positions blinded equals exactly when the atom fills the
// pattern (the key also fixes the predicate and arity). args is scratch
// for the blinded arguments; it is returned grown for reuse.
func appendGuardKey(dst []byte, a asp.Atom, mask uint64, args []asp.Term) ([]byte, []asp.Term) {
	if mask == 0 {
		return a.AppendKey(dst), args
	}
	args = append(args[:0], a.Args...)
	for i := range args {
		if mask&(1<<uint(i)) != 0 {
			args[i] = blindVar
		}
	}
	return asp.Atom{Predicate: a.Predicate, Args: args}.AppendKey(dst), args
}

// varMask returns the positions of a's variable arguments as bits.
func varMask(a asp.Atom) uint64 {
	var mask uint64
	for i, t := range a.Args {
		if _, ok := t.(asp.Variable); ok {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// decides reports whether a safe, non-choice rule's guards are its whole
// body: its head is plain and ground, or it is a constraint; its body has
// no comparison and no negated literal; each argument of a body atom is a
// variable or a plain ground term (at most 64 arguments); and no variable
// occurs twice. Each body atom is then an independent existence test, met
// when the model holds the atom (a ground atom) or some atom that fills
// its variables (a pattern guard), so one-step evaluation derives exactly
// the head, or fires, where every guard holds, and nothing elsewhere.
func decides(r asp.Rule) bool {
	if r.Head != nil && (!r.Head.Ground() || !plainArgs(r.Head.Args)) {
		return false
	}
	var seen []string
	for _, l := range r.Body {
		if l.IsCmp || l.Negated || len(l.Atom.Args) > 64 {
			return false
		}
		for _, t := range l.Atom.Args {
			if v, ok := t.(asp.Variable); ok {
				if slices.Contains(seen, v.Name) {
					return false
				}
				seen = append(seen, v.Name)
			} else if !t.Ground() || !plainTerm(t) {
				return false
			}
		}
	}
	return true
}

// guardAtoms returns the guard atoms of a safe, non-choice rule: its
// positive body atoms with no variable, provided no term of the rule is
// arithmetic and every comparison has a known operator. One-step
// evaluation of such a rule cannot fail (comparisons order any two ground
// terms), and in a model that lacks one of its guard atoms it derives
// nothing. So vectorize may skip it there without changing a signature
// or hiding an error. This is the one place that decides which ground
// atoms guard; decides adds the pattern guards.
func guardAtoms(r asp.Rule) []asp.Atom {
	if r.Head != nil && !plainArgs(r.Head.Args) {
		return nil
	}
	var out []asp.Atom
	for _, l := range r.Body {
		switch {
		case l.IsCmp:
			if l.Op < asp.CmpEq || l.Op > asp.CmpGeq || !plainTerm(l.Lhs) || !plainTerm(l.Rhs) {
				return nil
			}
		case !plainArgs(l.Atom.Args):
			return nil
		case !l.Negated && l.Atom.Ground():
			out = append(out, l.Atom)
		}
	}
	return out
}

// plainTerm reports whether t has no arithmetic: a constant, integer or
// variable, or a compound of such terms.
func plainTerm(t asp.Term) bool {
	switch tt := t.(type) {
	case asp.Constant, asp.Integer, asp.Variable:
		return true
	case asp.Compound:
		return plainArgs(tt.Args)
	default:
		return false
	}
}

func plainArgs(args []asp.Term) bool {
	for _, t := range args {
		if !plainTerm(t) {
			return false
		}
	}
	return true
}

// spaceMemoCap bounds the biases whose prepared spaces the memo keeps;
// a new bias past it evicts the oldest.
const spaceMemoCap = 8

// spaceMemo maps a bias key (Bias.appendKey) to the bias's prepared
// space; order lists the keys, oldest first. It is process-wide because
// callers build a fresh Task, and usually a fresh Bias, per learning job.
var spaceMemo struct {
	sync.Mutex
	spaces map[string]*preparedSpace
	order  []string
}

// biasSpace returns the prepared space of a bias: the memoized one when a
// bias with the same content was prepared before, else a fresh
// enumeration, prepared with guards (a taskOracle's candidates are their
// own instances) and memoized. Learners only read it, and hand out copies
// of the rules they choose (ownRule).
func biasSpace(b Bias) (*preparedSpace, error) {
	key := b.appendKey(make([]byte, 0, 256))
	spaceMemo.Lock()
	ps := spaceMemo.spaces[string(key)]
	spaceMemo.Unlock()
	if ps != nil {
		return ps, nil
	}
	cands, err := b.Space()
	if err != nil {
		return nil, err
	}
	ps = prepare(cands, true)
	spaceMemo.Lock()
	defer spaceMemo.Unlock()
	if prev := spaceMemo.spaces[string(key)]; prev != nil {
		return prev, nil // a concurrent learner memoized it first
	}
	if spaceMemo.spaces == nil {
		spaceMemo.spaces = make(map[string]*preparedSpace, spaceMemoCap)
	}
	if len(spaceMemo.order) == spaceMemoCap {
		delete(spaceMemo.spaces, spaceMemo.order[0])
		n := copy(spaceMemo.order, spaceMemo.order[1:])
		spaceMemo.order = spaceMemo.order[:n]
	}
	k := string(key)
	spaceMemo.spaces[k] = ps
	spaceMemo.order = append(spaceMemo.order, k)
	return ps, nil
}

// appendKey appends the bias's memo key to dst. The key covers every
// field: the modes, the constant pools sorted by type, the comparisons
// and the flags. Strings are length-prefixed and terms tagged by kind,
// so two biases share a key only when they have the same content.
func (b Bias) appendKey(dst []byte) []byte {
	dst = appendModes(dst, b.Head)
	dst = appendModes(dst, b.Body)
	types := make([]string, 0, len(b.Constants))
	for ty := range b.Constants {
		types = append(types, ty)
	}
	sort.Strings(types)
	dst = binary.AppendUvarint(dst, uint64(len(types)))
	for _, ty := range types {
		dst = appendTerms(appendString(dst, ty), b.Constants[ty])
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Comparisons)))
	for _, cs := range b.Comparisons {
		dst = appendString(dst, cs.Type)
		dst = binary.AppendUvarint(dst, uint64(len(cs.Ops)))
		for _, op := range cs.Ops {
			dst = binary.AppendVarint(dst, int64(op))
		}
		dst = appendTerms(dst, cs.Values)
	}
	dst = binary.AppendVarint(dst, int64(b.MaxVars))
	dst = binary.AppendVarint(dst, int64(b.MaxBody))
	for _, f := range [...]bool{b.VarComparisons, b.AllowConstraints, b.AllowNegation, b.RequireBody} {
		if f {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func appendModes(dst []byte, modes []ModeAtom) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(modes)))
	for _, m := range modes {
		dst = appendString(dst, m.Predicate)
		dst = binary.AppendUvarint(dst, uint64(len(m.Args)))
		for _, a := range m.Args {
			dst = appendString(binary.AppendVarint(dst, int64(a.Kind)), a.Type)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendTerms(dst []byte, ts []asp.Term) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = appendTerm(dst, t)
	}
	return dst
}

// appendTerm keys a term for the bias memo. Unlike asp's term key it
// tells quoted constants apart: they render differently in the rules of
// the space.
func appendTerm(dst []byte, t asp.Term) []byte {
	switch tt := t.(type) {
	case asp.Constant:
		if tt.Quoted {
			return appendString(append(dst, 'q'), tt.Name)
		}
		return appendString(append(dst, 'c'), tt.Name)
	case asp.Integer:
		return binary.AppendVarint(append(dst, 'i'), int64(tt.Value))
	case asp.Variable:
		return appendString(append(dst, 'v'), tt.Name)
	case asp.Compound:
		return appendTerms(appendString(append(dst, 'f'), tt.Functor), tt.Args)
	case asp.Arith:
		dst = binary.AppendVarint(append(dst, 'a'), int64(tt.Op))
		return appendTerm(appendTerm(dst, tt.L), tt.R)
	case asp.Range:
		return appendTerm(appendTerm(append(dst, 'r'), tt.Lo), tt.Hi)
	default:
		return append(dst, '0') // nil
	}
}

// ownRule copies a rule's head, body and argument slices, so that a
// learned hypothesis shares no memory with the space it was chosen from,
// which may be memoized and shared.
func ownRule(r asp.Rule) asp.Rule {
	out := r
	if r.Head != nil {
		h := ownAtom(*r.Head)
		out.Head = &h
	}
	if r.Choice != nil {
		out.Choice = make([]asp.Atom, len(r.Choice))
		for i, a := range r.Choice {
			out.Choice[i] = ownAtom(a)
		}
	}
	if r.Body != nil {
		out.Body = make([]asp.Literal, len(r.Body))
		for i, l := range r.Body {
			l.Atom = ownAtom(l.Atom)
			out.Body[i] = l
		}
	}
	return out
}

func ownAtom(a asp.Atom) asp.Atom {
	a.Args = append([]asp.Term(nil), a.Args...)
	return a
}
