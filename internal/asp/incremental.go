package asp

import (
	"fmt"
	"time"
)

// Incremental grounding: ground a base program once, then repeatedly
// extend it with small rule sets (hypothesis candidates in the learner)
// without re-grounding the base. Extend instantiates only the extension
// rules plus the base rules whose body predicates the extension can
// affect (computed from the predicate dependency graph), and rolls the
// grounder state back before each new extension.

// CompiledRules is an extension pre-compiled for repeated use with
// IncrementalGrounder.Extend: ranges expanded, choice rules compiled
// (namespaced by ns so separately compiled extensions cannot collide),
// and safety checked once.
type CompiledRules struct {
	facts     []Atom
	defs      []*plannedRule
	cons      []*plannedRule
	headPreds map[string]struct{}
}

// CompileExtension compiles a rule set for use with Extend. ns must be
// unique per extension compiled against the same grounder when the rules
// contain choice rules.
//
// The compiled form carries each rule's grounding plans, so an extension
// shared by many grounders (the learner extends one grounder per
// example with the same candidate) compiles its join orders once; the
// plan cache is safe for concurrent Extend calls on distinct grounders.
func CompileExtension(rules []Rule, ns string) (*CompiledRules, error) {
	normal, err := prepare(NewProgram(rules...), ns)
	if err != nil {
		return nil, err
	}
	out := &CompiledRules{headPreds: make(map[string]struct{})}
	for _, r := range normal.Rules {
		if r.IsFact() {
			out.facts = append(out.facts, *r.Head)
			out.headPreds[r.Head.Predicate] = struct{}{}
			continue
		}
		pr := newPlannedRule(r)
		if pr.isCon {
			out.cons = append(out.cons, pr)
		} else {
			out.defs = append(out.defs, pr)
			out.headPreds[r.Head.Predicate] = struct{}{}
		}
	}
	return out, nil
}

// ruleInfo pairs a compiled rule with its head predicate for
// dependency-directed re-instantiation.
type ruleInfo struct {
	pr       *plannedRule
	headName string
}

func newRuleInfo(pr *plannedRule) ruleInfo {
	info := ruleInfo{pr: pr}
	if pr.rule.Head != nil {
		info.headName = pr.rule.Head.Predicate
	}
	return info
}

// IncrementalGrounder grounds a base program once and supports repeated
// extension with compiled rule sets.
//
// The GroundProgram returned by Extend (and Base) shares the grounder's
// atom table: it is valid only until the next Extend or Reset call.
type IncrementalGrounder struct {
	g *grounder

	baseAtomLen int

	// baseStable holds finalized base rules whose form cannot change
	// under extension (every negative atom already in the base domain).
	baseStable []GroundRule
	baseSeen   map[string]struct{}
	// refin holds base instances with a negative atom outside the base
	// domain: an extension may derive that atom, so the finalized form
	// (negative literal kept vs dropped) is recomputed per Extend. This
	// includes inclusion constraints like ":- not decision(deny)." whose
	// meaning flips once a hypothesis derives the atom.
	refin []groundInstance

	baseDefs []ruleInfo
	baseCons []ruleInfo

	// cp is the lazily compiled clause form of the stable base rules;
	// cpJ journals the clause-form extension of the current Extend (set
	// when a returned program's clause form was actually built) so
	// Reset can roll it back instead of recompiling the base. cpJBuf is
	// the reused journal backing.
	cp     *CompiledProgram
	cpJ    *cpJournal
	cpJBuf cpJournal
}

// NewIncrementalGrounder grounds the base program and freezes the
// grounder state for subsequent Extend calls.
func NewIncrementalGrounder(base *Program, opts GroundingOptions) (*IncrementalGrounder, error) {
	normal, err := prepare(base, "")
	if err != nil {
		return nil, err
	}
	g := newGrounder(opts)
	baseDefs, baseCons, err := g.groundRules(normal.Rules)
	if err != nil {
		return nil, err
	}
	// The base instances alias the arena; freeze it so extension rounds
	// (rolled back by Reset) cannot reuse their storage.
	g.arena.freeze()
	g.flushPlanStats()

	ig := &IncrementalGrounder{g: g}
	ig.baseSeen = make(map[string]struct{}, len(g.pending))
	for _, inst := range g.pending {
		volatile := false
		for _, gid := range inst.neg {
			if !g.inDomain[gid] {
				volatile = true
				break
			}
		}
		if volatile {
			ig.refin = append(ig.refin, inst)
			continue
		}
		gr := GroundRule{Head: inst.head, PosBody: inst.pos, NegBody: inst.neg}
		key := g.keySc.ruleKey(gr)
		if _, dup := ig.baseSeen[string(key)]; dup {
			continue
		}
		ig.baseSeen[string(key)] = struct{}{}
		ig.baseStable = append(ig.baseStable, gr)
	}
	g.pending = nil
	ig.baseAtomLen = g.in.Len()

	for _, pr := range baseDefs {
		ig.baseDefs = append(ig.baseDefs, newRuleInfo(pr))
	}
	for _, pr := range baseCons {
		ig.baseCons = append(ig.baseCons, newRuleInfo(pr))
	}
	return ig, nil
}

// Base returns the ground base program (equivalent to Ground of the base,
// modulo atom-id numbering). Any pending extension is rolled back.
func (ig *IncrementalGrounder) Base() *GroundProgram {
	ig.Reset()
	return ig.finalizeExtended()
}

// Reset rolls the grounder back to the frozen base state, undoing the
// effects of the last Extend. Extend calls it implicitly.
func (ig *IncrementalGrounder) Reset() {
	if ig.cpJ != nil {
		ig.cp.rollback(ig.cpJ)
		ig.cpJ = nil
	}
	g := ig.g
	if !g.journal {
		return
	}
	statIncrRollbacks.Inc()
	for i := len(g.addedDomain) - 1; i >= 0; i-- {
		id := g.addedDomain[i]
		a := g.in.atoms[id]
		g.rel[atomPredKey(a)].popLast(a)
		g.inDomain[id] = false
		g.domainN--
	}
	g.addedDomain = g.addedDomain[:0]
	for _, pk := range g.newRels {
		delete(g.rel, pk)
	}
	g.newRels = g.newRels[:0]
	g.in.truncate(ig.baseAtomLen)
	if len(g.inDomain) > ig.baseAtomLen {
		g.inDomain = g.inDomain[:ig.baseAtomLen]
	}
	g.pending = g.pending[:0]
	g.delta = nil
	g.journal = false
	// Every arena block handed out since the base freeze belonged to the
	// rolled-back extension; reuse its storage.
	g.arena.reset()
}

// Extend grounds base ∪ extensions, reusing the frozen base grounding.
// Only the extension rules and the base rules reachable from the
// extensions' head predicates in the dependency graph are instantiated.
// The returned program shares the grounder's atom table and is valid only
// until the next Extend or Reset.
func (ig *IncrementalGrounder) Extend(exts ...*CompiledRules) (*GroundProgram, error) {
	t0 := time.Now()
	ig.Reset()
	defer func() {
		statIncrExtends.Inc()
		statIncrExtendDur.ObserveSince(t0)
		statIncrAtomsAdded.Add(int64(ig.g.in.Len() - ig.baseAtomLen))
		ig.g.flushPlanStats()
	}()
	g := ig.g
	g.journal = true
	g.delta = make(map[predKey][]int32)

	reach := make(map[string]struct{})
	var extDefs, extCons []*plannedRule
	for _, e := range exts {
		extDefs = append(extDefs, e.defs...)
		extCons = append(extCons, e.cons...)
		for p := range e.headPreds {
			reach[p] = struct{}{}
		}
	}

	// Close reach over the base dependency graph and collect the base
	// definite rules the extension can feed.
	changed := true
	for changed {
		changed = false
		for _, ri := range ig.baseDefs {
			if _, ok := reach[ri.headName]; ok {
				continue
			}
			for _, pk := range ri.pr.posPred {
				if _, hit := reach[pk.name]; hit {
					reach[ri.headName] = struct{}{}
					changed = true
					break
				}
			}
		}
	}
	var loop []ruleInfo
	for _, pr := range extDefs {
		loop = append(loop, newRuleInfo(pr))
	}
	for _, ri := range ig.baseDefs {
		for _, pk := range ri.pr.posPred {
			if _, hit := reach[pk.name]; hit {
				loop = append(loop, ri)
				break
			}
		}
	}

	// Round 0: emit extension facts, then fully instantiate the extension
	// rules against the base relations (their all-base-atom instances are
	// new).
	for _, e := range exts {
		for _, a := range e.facts {
			if err := g.emitFact(a); err != nil {
				return nil, err
			}
		}
	}
	for _, pr := range extDefs {
		if err := g.instantiate(pr, -1, nil); err != nil {
			return nil, err
		}
	}
	// Semi-naive rounds over extension plus affected base rules: only
	// instances touching a new atom are emitted.
	for len(g.delta) > 0 {
		if g.opts.MaxAtoms > 0 && g.domainN > g.opts.MaxAtoms {
			return nil, fmt.Errorf("grounding exceeded %d atoms", g.opts.MaxAtoms)
		}
		prevDelta := g.delta
		g.delta = make(map[predKey][]int32)
		for _, ri := range loop {
			for k := range ri.pr.posIdx {
				if err := g.instantiate(ri.pr, k, prevDelta); err != nil {
					return nil, err
				}
			}
		}
	}

	// Base constraints gain instances only at positions whose predicate
	// gained atoms; re-instantiate with the new atoms as the delta (the
	// empty-delta skip in instantiate drops unaffected positions).
	if len(g.addedDomain) > 0 && len(ig.baseCons) > 0 {
		newByPred := make(map[predKey][]int32)
		for _, id := range g.addedDomain {
			pk := atomPredKey(g.in.atoms[id])
			newByPred[pk] = append(newByPred[pk], id)
		}
		for _, ci := range ig.baseCons {
			for k := range ci.pr.posIdx {
				if err := g.instantiate(ci.pr, k, newByPred); err != nil {
					return nil, err
				}
			}
		}
	}
	// Extension constraints see the full relations.
	for _, c := range extCons {
		if err := g.instantiate(c, -1, nil); err != nil {
			return nil, err
		}
	}
	return ig.finalizeExtended(), nil
}

// finalizeExtended builds a ground program over the global atom table:
// frozen base rules, re-finalized volatile base instances, and the
// pending extension instances.
func (ig *IncrementalGrounder) finalizeExtended() *GroundProgram {
	g := ig.g
	out := &GroundProgram{
		Atoms: g.in.atoms,
		index: g.in.index,
	}
	rules := ig.baseStable[:len(ig.baseStable):len(ig.baseStable)]
	local := make(map[string]struct{}, len(ig.refin)+len(g.pending))
	addInst := func(inst groundInstance) {
		gr := GroundRule{Head: inst.head, PosBody: inst.pos}
		for _, gid := range inst.neg {
			if g.inDomain[gid] {
				gr.NegBody = append(gr.NegBody, gid)
			}
		}
		key := g.keySc.ruleKey(gr)
		if _, dup := ig.baseSeen[string(key)]; dup {
			return
		}
		if _, dup := local[string(key)]; dup {
			return
		}
		local[string(key)] = struct{}{}
		rules = append(rules, gr)
	}
	for _, inst := range ig.refin {
		addInst(inst)
	}
	for _, inst := range g.pending {
		addInst(inst)
	}
	out.Rules = rules
	out.cpFn = func() *CompiledProgram { return ig.clauseFormFor(out) }
	return out
}

// clauseFormFor extends the base clause form with out's extension rules
// — everything beyond the shared baseStable prefix (re-finalized
// volatile instances and the pending extension) — under a journal that
// the next Reset rolls back, so the base clauses are compiled exactly
// once per grounder. Invoked lazily, the first time the returned
// program is solved with the CDNL engine.
func (ig *IncrementalGrounder) clauseFormFor(out *GroundProgram) *CompiledProgram {
	if ig.cp == nil {
		base := &GroundProgram{Atoms: ig.g.in.atoms[:ig.baseAtomLen], Rules: ig.baseStable}
		ig.cp = compileGround(base)
	}
	if ig.cpJ != nil {
		ig.cp.rollback(ig.cpJ)
		ig.cpJ = nil
	}
	ig.cpJ = ig.cp.extend(out, out.Rules[len(ig.baseStable):], &ig.cpJBuf)
	return ig.cp
}
