package asp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"agenp/internal/obs"
)

// VarOccurrence is one source occurrence of a variable in a rule.
type VarOccurrence struct {
	Name string
	Pos  Pos
}

// SafetyError reports an unsafe rule: a variable not bound by any
// positive body literal or computable equality.
type SafetyError struct {
	Rule Rule
	Vars []string
	// Occurrences lists every occurrence of each unsafe variable in
	// source order. Positions are valid when the rule was parsed from
	// text.
	Occurrences []VarOccurrence
}

func (e *SafetyError) Error() string {
	where := ""
	if e.Rule.Pos.Valid() {
		where = fmt.Sprintf(" at %s", e.Rule.Pos)
	}
	return fmt.Sprintf("unsafe rule%s %q: unbound variables %s",
		where, e.Rule.String(), describeOccurrences(e.Vars, e.Occurrences))
}

// describeOccurrences renders "X (1:3, 1:9), Y (2:4)"; variables without
// positioned occurrences render as bare names.
func describeOccurrences(vars []string, occs []VarOccurrence) string {
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v)
		var at []string
		for _, o := range occs {
			if o.Name == v && o.Pos.Valid() {
				at = append(at, o.Pos.String())
			}
		}
		if len(at) > 0 {
			sb.WriteString(" (")
			sb.WriteString(strings.Join(at, ", "))
			sb.WriteByte(')')
		}
	}
	return sb.String()
}

// walkTermVars visits every variable occurrence of a term, including
// occurrences inside compound, arithmetic and range subterms.
func walkTermVars(t Term, f func(v Variable)) {
	switch tt := t.(type) {
	case Variable:
		f(tt)
	case Compound:
		for _, a := range tt.Args {
			walkTermVars(a, f)
		}
	case Arith:
		walkTermVars(tt.L, f)
		walkTermVars(tt.R, f)
	case Range:
		walkTermVars(tt.Lo, f)
		walkTermVars(tt.Hi, f)
	}
}

// ruleVarOccurrences collects every occurrence of the named variables in
// the rule, in source order: head, choice atoms, then body literals.
func ruleVarOccurrences(r Rule, names map[string]struct{}) []VarOccurrence {
	var out []VarOccurrence
	visit := func(v Variable) {
		if _, ok := names[v.Name]; ok {
			out = append(out, VarOccurrence{Name: v.Name, Pos: v.Pos})
		}
	}
	if r.Head != nil {
		for _, t := range r.Head.Args {
			walkTermVars(t, visit)
		}
	}
	for _, a := range r.Choice {
		for _, t := range a.Args {
			walkTermVars(t, visit)
		}
	}
	for _, l := range r.Body {
		if l.IsCmp {
			walkTermVars(l.Lhs, visit)
			walkTermVars(l.Rhs, visit)
			continue
		}
		for _, t := range l.Atom.Args {
			walkTermVars(t, visit)
		}
	}
	return out
}

// GroundRule is a fully instantiated rule over interned atom ids.
// Head == -1 denotes a constraint.
type GroundRule struct {
	Head    int32
	PosBody []int32
	NegBody []int32
}

// GroundProgram is the result of grounding: an atom table plus ground
// rules referencing atoms by id.
type GroundProgram struct {
	Atoms []Atom // id -> atom
	Rules []GroundRule

	index map[string]int32 // atom key -> id

	cp *CompiledProgram // cached clause form (see compile.go)

	// verdict is the grounder's decision of a definite program
	// (decideDefinite); verdictOpen for every other program, including
	// any not built by Ground.
	verdict int8
}

// AtomID returns the id of a ground atom, or -1 if the atom does not
// occur in the ground program. The key index is built lazily on first
// lookup (like clauseForm): most ground programs go straight to the
// solver and never pay for it.
func (g *GroundProgram) AtomID(a Atom) int32 {
	if g.index == nil {
		idx := make(map[string]int32, len(g.Atoms))
		var buf []byte
		for id, at := range g.Atoms {
			buf = appendAtomKey(buf[:0], at)
			idx[string(buf)] = int32(id)
		}
		g.index = idx
	}
	if id, ok := g.index[a.Key()]; ok {
		return id
	}
	return -1
}

// NumAtoms returns the number of distinct ground atoms.
func (g *GroundProgram) NumAtoms() int { return len(g.Atoms) }

// String renders the ground program in ASP syntax.
func (g *GroundProgram) String() string {
	var sb strings.Builder
	for _, r := range g.Rules {
		if r.Head >= 0 {
			sb.WriteString(g.Atoms[r.Head].String())
		}
		if len(r.PosBody)+len(r.NegBody) > 0 {
			sb.WriteString(" :- ")
			first := true
			for _, id := range r.PosBody {
				if !first {
					sb.WriteString(", ")
				}
				sb.WriteString(g.Atoms[id].String())
				first = false
			}
			for _, id := range r.NegBody {
				if !first {
					sb.WriteString(", ")
				}
				sb.WriteString("not ")
				sb.WriteString(g.Atoms[id].String())
				first = false
			}
		}
		sb.WriteString(".\n")
	}
	return sb.String()
}

// GroundingOptions configures the grounder.
type GroundingOptions struct {
	// MaxAtoms aborts grounding when the domain exceeds this many atoms
	// (0 = unlimited). Guards against runaway programs.
	MaxAtoms int
}

// Ground instantiates a program into a GroundProgram under the standard
// bottom-up over-approximation: the atom domain is the least fixpoint of
// the rules with negative literals ignored; rule instances whose negative
// atoms are not in the domain have those literals removed (they are
// vacuously true).
//
// Choice rules are compiled into pairs of normal rules over fresh
// complement atoms before grounding, so the resulting ground program
// contains only normal rules and constraints.
func Ground(p *Program, opts GroundingOptions) (*GroundProgram, error) {
	t0 := time.Now()
	sp := obs.StartSpan("asp.ground")
	normal, err := prepare(p)
	if err != nil {
		sp.End()
		return nil, err
	}
	g := newGrounder(opts)
	if err := g.groundRules(normal.Rules); err != nil {
		g.release()
		sp.End()
		return nil, err
	}
	instances := len(g.pending)
	atoms := g.in.Len()
	out := g.finalize()
	statGroundCalls.Inc()
	statGroundDur.ObserveSince(t0)
	statAtomsInterned.Add(int64(atoms))
	statRulesInstances.Add(int64(instances))
	statGroundRulesKept.Add(int64(len(out.Rules)))
	g.flushPlanStats()
	g.release()
	if obs.TracingEnabled() {
		sp.SetAttr("atoms", strconv.Itoa(atoms))
		sp.SetAttr("rules", strconv.Itoa(len(out.Rules)))
	}
	sp.End()
	return out, nil
}

// prepare expands ranges, compiles choice rules and checks safety.
func prepare(p *Program) (*Program, error) {
	expanded, err := expandRanges(p)
	if err != nil {
		return nil, err
	}
	normal, err := compileChoices(expanded)
	if err != nil {
		return nil, err
	}
	for _, r := range normal.Rules {
		if r.IsFact() {
			continue // trivially safe; skip the map-building check
		}
		if err := CheckSafety(r); err != nil {
			return nil, err
		}
	}
	return normal, nil
}

// groundRules compiles the rules into planned form, runs the definite
// fixpoint, and grounds constraints against the final relations. Ground
// facts are emitted inline — no compiled form, no intermediate slice —
// since tree/scenario programs are dominated by them.
func (g *grounder) groundRules(rules []Rule) error {
	g.delta = make(map[predKey][]int32)
	var defs, cons []*plannedRule
	for _, r := range rules {
		if r.IsFact() {
			if err := g.emitFact(*r.Head); err != nil {
				return err
			}
			continue
		}
		pr := newPlannedRule(r)
		if pr.isCon {
			cons = append(cons, pr)
		} else {
			defs = append(defs, pr)
		}
	}
	if err := g.fixpoint(defs); err != nil {
		return err
	}
	for _, c := range cons {
		if err := g.instantiate(c, -1, nil); err != nil {
			return err
		}
	}
	return nil
}

// emitFact interns a ground fact head and records its instance.
func (g *grounder) emitFact(a Atom) error {
	id, err := g.internGroundAtom(a)
	if err != nil {
		return err
	}
	g.addAtomID(id)
	g.pending = append(g.pending, groundInstance{head: id})
	return nil
}

// instantiate grounds one rule for one delta slot (-1 = against the full
// relations) by running its compiled plan. A slot whose delta is empty
// has no new instances and is skipped before any plan is compiled.
func (g *grounder) instantiate(pr *plannedRule, slot int, delta map[predKey][]int32) error {
	var deltaCands []int32
	if slot >= 0 {
		deltaCands = delta[pr.posPred[slot]]
		if len(deltaCands) == 0 {
			return nil
		}
	}
	plan, err := pr.planFor(slot, g)
	if err != nil {
		return err
	}
	return g.runPlan(pr, plan, deltaCands)
}

// compileChoices rewrites every choice rule {a1;...;ak} :- body into, for
// each i, the pair
//
//	ai  :- body, not _ci.
//	_ci :- body, not ai.
//
// where _ci is a fresh atom carrying the variables of ai and body. This is
// the standard encoding of choice under stable-model semantics.
func compileChoices(p *Program) (*Program, error) {
	hasChoice := false
	for i := range p.Rules {
		if p.Rules[i].IsChoice() {
			hasChoice = true
			break
		}
	}
	if !hasChoice {
		return p, nil
	}
	out := &Program{Rules: make([]Rule, 0, len(p.Rules))}
	fresh := 0
	for _, r := range p.Rules {
		if !r.IsChoice() {
			out.Rules = append(out.Rules, r)
			continue
		}
		ruleVars := make([]string, 0, 4)
		seen := make(map[string]struct{})
		for v := range r.Variables() {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				ruleVars = append(ruleVars, v)
			}
		}
		sort.Strings(ruleVars)
		varTerms := make([]Term, len(ruleVars))
		for i, v := range ruleVars {
			varTerms[i] = Variable{Name: v}
		}
		for i, a := range r.Choice {
			comp := Atom{
				Predicate: fmt.Sprintf("_choice_%d_%d", fresh, i),
				Args:      varTerms,
			}
			posRule := Rule{Head: &Atom{Predicate: a.Predicate, Args: a.Args, Pos: a.Pos}, Pos: r.Pos}
			posRule.Body = append(append([]Literal{}, r.Body...), Neg(comp))
			compRule := Rule{Head: &comp, Pos: r.Pos}
			compRule.Body = append(append([]Literal{}, r.Body...), Neg(a))
			out.Rules = append(out.Rules, posRule, compRule)
		}
		fresh++
	}
	return out, nil
}

// CheckSafety verifies that every variable of the rule is bound: it
// occurs in a positive body atom literal outside arithmetic, or in an
// equality V = expr (or expr = V) whose other side only uses bound
// variables. Binding propagates to a fixpoint.
func CheckSafety(r Rule) error {
	bound := make(map[string]struct{})
	varsOfTermOutsideArith := func(t Term, into map[string]struct{}) {
		var walk func(t Term)
		walk = func(t Term) {
			switch tt := t.(type) {
			case Variable:
				into[tt.Name] = struct{}{}
			case Compound:
				for _, a := range tt.Args {
					walk(a)
				}
			case Arith:
				// Variables inside arithmetic are *used*, not bound.
			}
		}
		walk(t)
	}
	for _, l := range r.Body {
		if !l.IsCmp && !l.Negated {
			for _, t := range l.Atom.Args {
				varsOfTermOutsideArith(t, bound)
			}
		}
	}
	// Propagate through equalities.
	changed := true
	for changed {
		changed = false
		for _, l := range r.Body {
			if !l.IsCmp || l.Op != CmpEq {
				continue
			}
			tryBind := func(v Term, other Term) {
				vv, ok := v.(Variable)
				if !ok {
					return
				}
				if _, already := bound[vv.Name]; already {
					return
				}
				otherVars := make(map[string]struct{})
				other.collectVars(otherVars)
				for ov := range otherVars {
					if _, ok := bound[ov]; !ok {
						return
					}
				}
				bound[vv.Name] = struct{}{}
				changed = true
			}
			tryBind(l.Lhs, l.Rhs)
			tryBind(l.Rhs, l.Lhs)
		}
	}
	var unbound []string
	for v := range r.Variables() {
		if _, ok := bound[v]; !ok {
			unbound = append(unbound, v)
		}
	}
	if len(unbound) > 0 {
		sort.Strings(unbound)
		names := make(map[string]struct{}, len(unbound))
		for _, v := range unbound {
			names[v] = struct{}{}
		}
		return &SafetyError{Rule: r, Vars: unbound, Occurrences: ruleVarOccurrences(r, names)}
	}
	return nil
}

// Interner assigns dense integer ids to ground atoms. String keys are
// computed once at interning time; all downstream joins and rule bodies
// work on the ids.
type Interner struct {
	atoms []Atom
	index map[string]int32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{index: make(map[string]int32)}
}

// Atom returns the atom for an id.
func (in *Interner) Atom(id int32) Atom { return in.atoms[id] }

// Len returns the number of interned atoms.
func (in *Interner) Len() int { return len(in.atoms) }

// reset empties the interner keeping its capacity (pool reuse). Atom
// argument slices handed out earlier are never mutated, so programs
// built from a previous use stay valid.
func (in *Interner) reset() {
	clear(in.index)
	in.atoms = in.atoms[:0]
}

// predKey identifies a relation: predicate name plus arity.
type predKey struct {
	name  string
	arity int
}

func atomPredKey(a Atom) predKey { return predKey{name: a.Predicate, arity: len(a.Args)} }

// argKey is a comparable per-argument index key for one ground term:
// integers and plain constants (the overwhelmingly common argument
// shapes) key directly on their value without allocating, everything
// else falls back to the canonical TermKey string. kind bytes keep the
// cases disjoint, so argKey equality coincides with TermKey equality.
type argKey struct {
	kind byte // 'i' integer, 'c' constant, 'x' TermKey fallback
	num  int
	str  string
}

func termArgKey(t Term) argKey {
	switch tt := t.(type) {
	case Integer:
		return argKey{kind: 'i', num: tt.Value}
	case Constant:
		return argKey{kind: 'c', str: tt.Name}
	default:
		return argKey{kind: 'x', str: TermKey(t)}
	}
}

// relation is the set of domain atoms of one predicate, as interned ids
// in insertion order, with lazily built per-argument exact-term indexes.
type relation struct {
	ids []int32
	// argIndex[i] maps termArgKey(arg i) -> ids having that argument; nil
	// until first used.
	argIndex []map[argKey][]int32
}

func newRelation(arity int) *relation {
	return &relation{argIndex: make([]map[argKey][]int32, arity)}
}

// newRel returns an empty relation for the arity, recycling a released
// one when available. Recycled index maps are cleared here, before any
// add, so a non-nil per-argument map is always in sync with ids.
func (g *grounder) newRel(arity int) *relation {
	n := len(g.relFree)
	if n == 0 {
		return newRelation(arity)
	}
	r := g.relFree[n-1]
	g.relFree[n-1] = nil
	g.relFree = g.relFree[:n-1]
	r.ids = r.ids[:0]
	if cap(r.argIndex) < arity {
		r.argIndex = make([]map[argKey][]int32, arity)
		return r
	}
	r.argIndex = r.argIndex[:arity]
	for _, m := range r.argIndex {
		if m != nil {
			clear(m)
		}
	}
	return r
}

func (r *relation) add(id int32, a Atom) {
	r.ids = append(r.ids, id)
	for i, m := range r.argIndex {
		if m == nil {
			continue
		}
		k := termArgKey(a.Args[i])
		m[k] = append(m[k], id)
	}
}

// index returns the per-argument index for position arg, building it on
// first use.
func (r *relation) index(arg int, in *Interner) map[argKey][]int32 {
	if r.argIndex[arg] == nil {
		m := make(map[argKey][]int32, len(r.ids))
		for _, id := range r.ids {
			k := termArgKey(in.atoms[id].Args[arg])
			m[k] = append(m[k], id)
		}
		r.argIndex[arg] = m
	}
	return r.argIndex[arg]
}

// indexMinFacts is the relation size below which a full scan beats index
// probing.
const indexMinFacts = 8

type grounder struct {
	opts GroundingOptions

	in *Interner
	// inDomain[id] marks atoms in the derivable over-approximation (an
	// interned atom may appear only under negation and stay outside it).
	inDomain []bool
	domainN  int

	rel   map[predKey]*relation
	delta map[predKey][]int32
	// relFree recycles relation objects across Ground calls on a pooled
	// grounder (id slices and index-map buckets keep their capacity).
	relFree []*relation

	// pending collects ground rule instances before finalization.
	pending []groundInstance

	// Scratch for finalize. Grounding is sequential within a grounder,
	// so one set of buffers suffices.
	keySc keyScratch
	remap []int32
	seen  map[string]struct{}

	// Scratch and arena for the plan VM (plan.go): variable registers,
	// matched fact ids per body literal, choice-stack frames, interner
	// probe buffers, and the instance-id arena. Per-grounder and not
	// re-entrant.
	regs     []Term
	sMatched []int32
	frames   []vmFrame
	keyBuf   []byte
	argBuf   []Term
	arena    i32Arena

	// Per-call metric accumulators, flushed once per Ground.
	scanned      int64
	planCompiles int64
	planHits     int64

	// planTrace, when non-nil, collects PlanInfo for every plan compiled
	// through this grounder (GroundWithPlans introspection).
	planTrace *[]PlanInfo
}

// grounderPool recycles batch grounders between Ground calls: the
// interner's atom slice and key map, the relation map, scratch buffers
// and the instance arena all keep their capacity, so repeated grounding
// of small programs (the regenerate/adapt hot path) stops paying
// per-call re-growth.
var grounderPool = sync.Pool{New: func() any {
	return &grounder{
		in:  NewInterner(),
		rel: make(map[predKey]*relation),
	}
}}

func newGrounder(opts GroundingOptions) *grounder {
	g := grounderPool.Get().(*grounder)
	g.opts = opts
	return g
}

// release resets the grounder and returns it to the pool. finalize
// copies everything the returned program needs, so nothing it returns
// aliases the grounder.
func (g *grounder) release() {
	g.in.reset()
	g.inDomain = g.inDomain[:0]
	g.domainN = 0
	for pk, r := range g.rel {
		g.relFree = append(g.relFree, r)
		delete(g.rel, pk)
	}
	g.delta = nil
	g.pending = g.pending[:0]
	g.arena.reset()
	clear(g.regs) // drop Term references; capacity stays
	g.planTrace = nil
	grounderPool.Put(g)
}

// groundInstance is a fully instantiated rule over global interner ids.
type groundInstance struct {
	head int32 // -1 for constraints
	pos  []int32
	neg  []int32
}

// fixpoint runs semi-naive evaluation of the definite rules.
func (g *grounder) fixpoint(rules []*plannedRule) error {
	// g.delta is live on entry: groundRules seeds it with the facts.

	// Round 0: rules with no positive atom literals (rules bound purely
	// by equalities/comparisons).
	for _, pr := range rules {
		if len(pr.posIdx) == 0 {
			if err := g.instantiate(pr, -1, nil); err != nil {
				return err
			}
		}
	}

	for len(g.delta) > 0 {
		if g.opts.MaxAtoms > 0 && g.domainN > g.opts.MaxAtoms {
			return fmt.Errorf("grounding exceeded %d atoms", g.opts.MaxAtoms)
		}
		prevDelta := g.delta
		g.delta = make(map[predKey][]int32)
		for _, pr := range rules {
			if len(pr.posIdx) == 0 {
				continue
			}
			// Semi-naive: require one positive literal to match the
			// delta; try each position in turn.
			for k := range pr.posIdx {
				if err := g.instantiate(pr, k, prevDelta); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// addAtomID adds an already-interned atom to the domain, relations and
// the current delta (no-op when already in the domain).
func (g *grounder) addAtomID(id int32) {
	if g.inDomain[id] {
		return
	}
	g.inDomain[id] = true
	g.domainN++
	a := g.in.atoms[id]
	pk := atomPredKey(a)
	rel := g.rel[pk]
	if rel == nil {
		rel = g.newRel(pk.arity)
		g.rel[pk] = rel
	}
	rel.add(id, a)
	g.delta[pk] = append(g.delta[pk], id)
}

// finalize interns pending instances into a fresh, compacted ground
// program: ids are re-numbered densely over the atoms that actually occur
// in finalized rules, negative literals whose atom is outside the domain
// are dropped (vacuously true), and duplicate rules are removed.
func (g *grounder) finalize() *GroundProgram {
	out := &GroundProgram{
		Atoms: make([]Atom, 0, g.in.Len()),
		Rules: make([]GroundRule, 0, len(g.pending)),
		// index stays nil; AtomID builds it on demand.
	}
	g.remap = grow(g.remap, g.in.Len())
	remap := g.remap
	for i := range remap {
		remap[i] = -1
	}
	intern := func(gid int32) int32 {
		if remap[gid] >= 0 {
			return remap[gid]
		}
		id := int32(len(out.Atoms))
		out.Atoms = append(out.Atoms, g.in.atoms[gid])
		remap[gid] = id
		return id
	}
	// All rule bodies are carved from one block owned by the output
	// program; the exact pre-sizing means append never reallocates, so
	// earlier carves stay valid.
	total := 0
	for _, inst := range g.pending {
		total += len(inst.pos) + len(inst.neg)
	}
	block := make([]int32, 0, total)
	if g.seen == nil {
		g.seen = make(map[string]struct{}, len(g.pending))
	}
	seen := g.seen
	for _, inst := range g.pending {
		start := len(block)
		gr := GroundRule{Head: -1}
		for _, gid := range inst.pos {
			block = append(block, intern(gid))
		}
		mid := len(block)
		for _, gid := range inst.neg {
			if !g.inDomain[gid] {
				continue // vacuously true
			}
			block = append(block, intern(gid))
		}
		if mid > start {
			gr.PosBody = block[start:mid:mid]
		}
		if len(block) > mid {
			gr.NegBody = block[mid:len(block):len(block)]
		}
		if inst.head >= 0 {
			gr.Head = intern(inst.head)
		}
		key := g.keySc.ruleKey(gr)
		if _, dup := seen[string(key)]; dup {
			block = block[:start]
			continue
		}
		seen[string(key)] = struct{}{}
		out.Rules = append(out.Rules, gr)
	}
	clear(seen)
	g.pending = g.pending[:0]
	out.verdict = decideDefinite(out.Rules)
	return out
}

// keyScratch renders canonical ground-rule dedup keys ("head:pos,...|
// neg,..." with body ids sorted) into a reusable buffer, so duplicate
// probes via map[string]X lookups on string(buf) never allocate; only a
// first-seen insert copies the key.
type keyScratch struct {
	buf []byte
	pos []int32
	neg []int32
}

func (k *keyScratch) ruleKey(r GroundRule) []byte {
	k.pos = append(k.pos[:0], r.PosBody...)
	k.neg = append(k.neg[:0], r.NegBody...)
	slices.Sort(k.pos)
	slices.Sort(k.neg)
	buf := k.buf[:0]
	buf = strconv.AppendInt(buf, int64(r.Head), 10)
	buf = append(buf, ':')
	for _, id := range k.pos {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	for _, id := range k.neg {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	k.buf = buf
	return buf
}
