package asp

// Compiled grounding plans. Instead of re-scanning the rule body on
// every recursive step to greedily pick the next literal (and binding
// variables through a map[string]Term), each rule is compiled once into
// an executable plan: variables are numbered into dense registers, the
// literal join order is fixed up front per (rule, delta-position) by a
// bound-prefix/selectivity heuristic, and the result is lowered to a
// flat op list (index scan / delta scan / bind / compare / emit)
// executed by a small iterative VM with an explicit choice stack.
//
// Plans are cached on the plannedRule keyed by delta slot, so the
// fixpoint pays compilation once per (rule, slot) and every later round
// is a cache hit. Each Ground call builds its own plannedRules and
// only its grounder reads them, so the cache needs no synchronisation.

import (
	"fmt"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------
// Compiled expressions over registers
// ---------------------------------------------------------------------

type ceKind uint8

const (
	ceConst    ceKind = iota // pre-evaluated ground term
	ceReg                    // register read
	ceArith                  // arithmetic node
	ceCompound               // compound constructor
	ceOpaque                 // fallback: substitute registers, EvalArith
)

// cExpr is a term compiled against a rule's register frame: variables
// are register reads, ground subterms are folded to constants at
// compile time, and arithmetic is evaluated without re-boxing a
// substituted tree. src retains the source term for the slow error
// path, which reproduces EvalArith's exact diagnostics.
type cExpr struct {
	kind    ceKind
	op      ArithOp
	reg     int32
	k       Term
	functor string
	args    []cExpr
	src     Term
}

func (pr *plannedRule) compileExpr(t Term) cExpr {
	if t.Ground() {
		if ev, err := EvalArith(t); err == nil {
			return cExpr{kind: ceConst, k: ev, src: t}
		}
		// Ground but erroring (e.g. 1/0): keep the runtime error path.
		return cExpr{kind: ceOpaque, src: t}
	}
	switch tt := t.(type) {
	case Variable:
		return cExpr{kind: ceReg, reg: int32(pr.reg(tt.Name)), src: t}
	case Arith:
		return cExpr{
			kind: ceArith, op: tt.Op,
			args: []cExpr{pr.compileExpr(tt.L), pr.compileExpr(tt.R)},
			src:  t,
		}
	case Compound:
		args := make([]cExpr, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = pr.compileExpr(a)
		}
		return cExpr{kind: ceCompound, functor: tt.Functor, args: args, src: t}
	default:
		return cExpr{kind: ceOpaque, src: t}
	}
}

// evalExpr evaluates a compiled expression over the register frame.
// Error diagnostics are produced by re-running EvalArith on the
// substituted source term, so they are EvalArith's own messages.
func evalExpr(e *cExpr, pr *plannedRule, regs []Term) (Term, error) {
	switch e.kind {
	case ceConst:
		return e.k, nil
	case ceReg:
		return regs[e.reg], nil
	case ceArith:
		lt, err := evalExpr(&e.args[0], pr, regs)
		if err != nil {
			return nil, err
		}
		rt, err := evalExpr(&e.args[1], pr, regs)
		if err != nil {
			return nil, err
		}
		li, lok := lt.(Integer)
		ri, rok := rt.(Integer)
		if !lok || !rok {
			return slowEvalErr(e, pr, regs)
		}
		switch e.op {
		case OpAdd:
			return Integer{Value: li.Value + ri.Value}, nil
		case OpSub:
			return Integer{Value: li.Value - ri.Value}, nil
		case OpMul:
			return Integer{Value: li.Value * ri.Value}, nil
		case OpDiv:
			if ri.Value == 0 {
				return slowEvalErr(e, pr, regs)
			}
			return Integer{Value: li.Value / ri.Value}, nil
		case OpMod:
			if ri.Value == 0 {
				return slowEvalErr(e, pr, regs)
			}
			return Integer{Value: li.Value % ri.Value}, nil
		default:
			return slowEvalErr(e, pr, regs)
		}
	case ceCompound:
		args := make([]Term, len(e.args))
		for i := range e.args {
			v, err := evalExpr(&e.args[i], pr, regs)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return Compound{Functor: e.functor, Args: args}, nil
	default: // ceOpaque
		return EvalArith(substTerm(e.src, pr.regBinding(regs)))
	}
}

// slowEvalErr reproduces the canonical EvalArith error for a failing
// compiled expression (cold path; allocation is fine here).
func slowEvalErr(e *cExpr, pr *plannedRule, regs []Term) (Term, error) {
	_, err := EvalArith(substTerm(e.src, pr.regBinding(regs)))
	if err == nil {
		err = fmt.Errorf("arithmetic evaluation failed for %s", e.src)
	}
	return nil, err
}

// regBinding materializes the register frame as a Binding (error and
// diagnostic paths only).
func (pr *plannedRule) regBinding(regs []Term) Binding {
	b := make(Binding, len(pr.vars))
	for i, name := range pr.vars {
		if i < len(regs) && regs[i] != nil {
			b[name] = regs[i]
		}
	}
	return b
}

// ---------------------------------------------------------------------
// Pattern matchers
// ---------------------------------------------------------------------

type amKind uint8

const (
	amBind     amKind = iota // first occurrence: store the fact arg
	amCheckReg               // later occurrence: compare to register
	amConst                  // compare to a pre-evaluated ground term
	amExpr                   // evaluate expr over registers, compare
	amStruct                 // destructure a compound fact arg
)

// argMatch matches one pattern position against a ground fact subterm.
// The kind is fixed at plan-compile time from the static bound set, so
// the hot loop never consults a binding map: a first variable
// occurrence is an unconditional register store, later occurrences are
// register compares.
type argMatch struct {
	kind    amKind
	reg     int32
	k       Term
	expr    *cExpr
	functor string
	sub     []argMatch
}

// compileMatch lowers one pattern term, updating the static bound set.
func (pr *plannedRule) compileMatch(t Term, bound []bool) argMatch {
	if t.Ground() {
		if ev, err := EvalArith(t); err == nil {
			return argMatch{kind: amConst, k: ev}
		}
		e := pr.compileExpr(t)
		return argMatch{kind: amExpr, expr: &e}
	}
	switch tt := t.(type) {
	case Variable:
		r := pr.reg(tt.Name)
		if bound[r] {
			return argMatch{kind: amCheckReg, reg: int32(r)}
		}
		bound[r] = true
		return argMatch{kind: amBind, reg: int32(r)}
	case Compound:
		sub := make([]argMatch, len(tt.Args))
		for i, a := range tt.Args {
			sub[i] = pr.compileMatch(a, bound)
		}
		return argMatch{kind: amStruct, functor: tt.Functor, sub: sub}
	default:
		// Arith (vars guaranteed bound by scheduling) or exotic terms:
		// evaluate and compare, failing the match on evaluation errors.
		e := pr.compileExpr(t)
		return argMatch{kind: amExpr, expr: &e}
	}
}

// matchArgs matches compiled arg patterns against the args of a
// candidate fact. Registers bound by a failed partial match are never
// read before being rebound, so no undo trail is needed.
func (g *grounder) matchArgs(ms []argMatch, args []Term, pr *plannedRule) bool {
	regs := g.regs
	for i := range ms {
		m := &ms[i]
		switch m.kind {
		case amBind:
			regs[m.reg] = args[i]
		case amCheckReg:
			if !termEq(regs[m.reg], args[i]) {
				return false
			}
		case amConst:
			if !termEq(m.k, args[i]) {
				return false
			}
		case amExpr:
			v, err := evalExpr(m.expr, pr, regs)
			if err != nil || !termEq(v, args[i]) {
				return false
			}
		default: // amStruct
			c, ok := args[i].(Compound)
			if !ok || c.Functor != m.functor || len(c.Args) != len(m.sub) {
				return false
			}
			if !g.matchArgs(m.sub, c.Args, pr) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Plan ops
// ---------------------------------------------------------------------

type opKind uint8

const (
	opScan      opKind = iota // enumerate a relation, match the pattern
	opScanDelta               // enumerate the round's delta instead
	opBind                    // reg := eval(expr)  (binder equality)
	opCmp                     // filter on a ground comparison
	opEmit                    // record the instance
)

// probeArg is one fully-bound scan argument usable for index probing.
type probeArg struct {
	argPos int
	expr   cExpr
}

type planOp struct {
	kind   opKind
	lit    int // body literal index
	pred   predKey
	match  []argMatch
	probes []probeArg
	reg    int32
	cop    CmpOp
	e1, e2 cExpr
}

// groundPlan is the executable form of one (rule, delta-slot) pair.
type groundPlan struct {
	ops  []planOp
	join []int // scheduled positive-literal body indices, in order
}

// planResult pairs a compiled plan with its compile error (a rule that
// cannot be fully scheduled — the "stuck" case — fails on every round
// identically, so the error is cached like a plan).
type planResult struct {
	plan *groundPlan
	err  error
}

// ---------------------------------------------------------------------
// plannedRule: per-rule compile-once state
// ---------------------------------------------------------------------

type litKind uint8

const (
	litPos litKind = iota
	litNeg
	litCmp
)

// planLit is the static metadata of one body literal used by the
// join-order heuristic.
type planLit struct {
	kind litKind
	// allVars are the registers occurring anywhere in the literal.
	allVars []int
	// needVars are the registers that must already be bound before the
	// literal can be scheduled: for positive atoms, variables occurring
	// inside arithmetic subterms (the matcher can only evaluate them);
	// for comparisons, all variables.
	needVars []int
	// Comparison sides (cmp literals only).
	lhsVars, rhsVars []int
	lhsVar, rhsVar   int // register when the side is a bare variable, else -1
}

// atomTemplate is a head or negative-body atom compiled for emission.
type atomTemplate struct {
	pred string
	args []cExpr
}

// plannedRule is a rule compiled for planned grounding: dense variable
// registers, per-literal metadata, emission templates, and a plan cache
// keyed by delta slot.
type plannedRule struct {
	rule    Rule
	isCon   bool
	vars    []string // register -> variable name
	body    []planLit
	posIdx  []int     // body indices of positive atom literals
	posPred []predKey // parallel to posIdx
	negs    []atomTemplate
	headTpl *atomTemplate

	planAll   *planResult   // delta slot -1
	planDelta []*planResult // per posIdx slot
}

// reg returns the register of a variable name, allocating the next
// dense register on first sight. Rules have a handful of variables, so
// a linear scan beats a map. After newPlannedRule returns, every
// variable of the rule has a register, so later calls (plan compiles)
// are pure lookups and never mutate vars.
func (pr *plannedRule) reg(name string) int {
	for i, v := range pr.vars {
		if v == name {
			return i
		}
	}
	pr.vars = append(pr.vars, name)
	return len(pr.vars) - 1
}

// collectPlanVars registers every variable of the term, splitting
// occurrences inside arithmetic (which the matcher must evaluate, so
// they gate scheduling) from plain occurrences.
func (pr *plannedRule) collectPlanVars(t Term, inArith bool, all, need *[]int) {
	switch tt := t.(type) {
	case Variable:
		r := pr.reg(tt.Name)
		*all = appendUniqueInt(*all, r)
		if inArith {
			*need = appendUniqueInt(*need, r)
		}
	case Compound:
		for _, a := range tt.Args {
			pr.collectPlanVars(a, inArith, all, need)
		}
	case Arith:
		pr.collectPlanVars(tt.L, true, all, need)
		pr.collectPlanVars(tt.R, true, all, need)
	case Range:
		pr.collectPlanVars(tt.Lo, true, all, need)
		pr.collectPlanVars(tt.Hi, true, all, need)
	}
}

func appendUniqueInt(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// newPlannedRule compiles the rule's static metadata: register
// numbering, literal classification, and emission templates. Join-order
// plans are compiled lazily per delta slot.
func newPlannedRule(r Rule) *plannedRule {
	pr := &plannedRule{rule: r, isCon: r.IsConstraint()}
	for i, l := range r.Body {
		var pl planLit
		switch {
		case l.IsCmp:
			pl.kind = litCmp
			pl.lhsVar, pl.rhsVar = -1, -1
			var scratch []int
			pr.collectPlanVars(l.Lhs, false, &pl.lhsVars, &scratch)
			pr.collectPlanVars(l.Rhs, false, &pl.rhsVars, &scratch)
			pl.allVars = append(pl.allVars, pl.lhsVars...)
			for _, v := range pl.rhsVars {
				pl.allVars = appendUniqueInt(pl.allVars, v)
			}
			pl.needVars = pl.allVars // a comparison filters only when ground
			if v, ok := l.Lhs.(Variable); ok {
				pl.lhsVar = pr.reg(v.Name)
			}
			if v, ok := l.Rhs.(Variable); ok {
				pl.rhsVar = pr.reg(v.Name)
			}
		case l.Negated:
			pl.kind = litNeg
			for _, t := range l.Atom.Args {
				pr.collectPlanVars(t, false, &pl.allVars, &pl.needVars)
			}
		default:
			pl.kind = litPos
			for _, t := range l.Atom.Args {
				pr.collectPlanVars(t, false, &pl.allVars, &pl.needVars)
			}
			pr.posIdx = append(pr.posIdx, i)
			pr.posPred = append(pr.posPred, atomPredKey(l.Atom))
		}
		pr.body = append(pr.body, pl)
	}
	// Emission templates: negative body atoms in body order, then the
	// head (the order emitPlanned interns them in).
	for _, l := range r.Body {
		if l.IsCmp || !l.Negated {
			continue
		}
		pr.negs = append(pr.negs, pr.compileAtomTemplate(l.Atom))
	}
	if r.Head != nil {
		tpl := pr.compileAtomTemplate(*r.Head)
		pr.headTpl = &tpl
	}
	pr.planDelta = make([]*planResult, len(pr.posIdx))
	return pr
}

func (pr *plannedRule) compileAtomTemplate(a Atom) atomTemplate {
	tpl := atomTemplate{pred: a.Predicate}
	if len(a.Args) > 0 {
		tpl.args = make([]cExpr, len(a.Args))
		for i, t := range a.Args {
			tpl.args[i] = pr.compileExpr(t)
		}
	}
	return tpl
}

// planFor returns the compiled plan for a delta slot (-1 = full join),
// compiling and caching it on first use.
func (pr *plannedRule) planFor(slot int, g *grounder) (*groundPlan, error) {
	p := &pr.planAll
	if slot >= 0 {
		p = &pr.planDelta[slot]
	}
	if res := *p; res != nil {
		g.planHits++
		return res.plan, res.err
	}
	plan, err := pr.compilePlan(slot, g)
	*p = &planResult{plan: plan, err: err}
	g.planCompiles++
	if g.planTrace != nil && err == nil {
		*g.planTrace = append(*g.planTrace, describePlan(pr, plan, slot))
	}
	return plan, err
}

// ---------------------------------------------------------------------
// Join-order heuristic and lowering
// ---------------------------------------------------------------------

// compilePlan chooses the literal join order for one delta slot and
// lowers it to ops. The order is built greedily over a static bound
// set:
//
//  1. Ground comparisons and binder equalities are hoisted to the
//     earliest point they become evaluable (textual order among
//     candidates).
//  2. The delta literal is scheduled as soon as it is schedulable (its
//     candidates are the round's delta — typically the smallest
//     relation in the join).
//  3. Otherwise scans prefer literals with at least one fully-bound
//     argument (an index probe), then the smaller relation (sizes
//     observed at compile time), then textual order.
//
// A positive literal is schedulable only once the variables inside its
// arithmetic subterms are bound — the matcher must evaluate them.
// Negative literals never join; they are grounded at emission.
func (pr *plannedRule) compilePlan(slot int, g *grounder) (*groundPlan, error) {
	n := len(pr.body)
	bound := make([]bool, len(pr.vars))
	done := make([]bool, n)
	plan := &groundPlan{ops: make([]planOp, 0, n+1)}

	allBound := func(vars []int) bool {
		for _, v := range vars {
			if !bound[v] {
				return false
			}
		}
		return true
	}

	// flush hoists every evaluable comparison/binder, restarting the
	// textual scan after each emission.
	flush := func() {
		for {
			progressed := false
			for i := range pr.body {
				pl := &pr.body[i]
				if done[i] || pl.kind != litCmp {
					continue
				}
				l := &pr.rule.Body[i]
				if allBound(pl.allVars) {
					plan.ops = append(plan.ops, planOp{
						kind: opCmp, lit: i, cop: l.Op,
						e1: pr.compileExpr(l.Lhs), e2: pr.compileExpr(l.Rhs),
					})
					done[i] = true
					progressed = true
					break
				}
				if l.Op != CmpEq {
					continue
				}
				if pl.lhsVar >= 0 && !bound[pl.lhsVar] && allBound(pl.rhsVars) {
					plan.ops = append(plan.ops, planOp{
						kind: opBind, lit: i, reg: int32(pl.lhsVar), e1: pr.compileExpr(l.Rhs),
					})
					bound[pl.lhsVar] = true
					done[i] = true
					progressed = true
					break
				}
				if pl.rhsVar >= 0 && !bound[pl.rhsVar] && allBound(pl.lhsVars) {
					plan.ops = append(plan.ops, planOp{
						kind: opBind, lit: i, reg: int32(pl.rhsVar), e1: pr.compileExpr(l.Lhs),
					})
					bound[pl.rhsVar] = true
					done[i] = true
					progressed = true
					break
				}
			}
			if !progressed {
				return
			}
		}
	}

	countBoundArgs := func(li int) int {
		nb := 0
		for _, t := range pr.rule.Body[li].Atom.Args {
			if termBoundUnder(t, pr, bound) {
				nb++
			}
		}
		return nb
	}

	flush()
	for {
		pick, pickSlot := -1, -1
		var pickBound, pickSize int
		for k, li := range pr.posIdx {
			if done[li] {
				continue
			}
			if !allBound(pr.body[li].needVars) {
				continue
			}
			if k == slot {
				// Delta pinning: the delta literal wins outright.
				pick, pickSlot = li, k
				break
			}
			nb := countBoundArgs(li)
			size := 0
			if rel := g.rel[pr.posPred[k]]; rel != nil {
				size = len(rel.ids)
			}
			better := false
			switch {
			case pick == -1:
				better = true
			case (nb > 0) != (pickBound > 0):
				better = nb > 0
			case size != pickSize:
				better = size < pickSize
			}
			if better {
				pick, pickSlot = li, k
				pickBound, pickSize = nb, size
			}
		}
		if pick == -1 {
			break
		}
		op := planOp{kind: opScan, lit: pick, pred: pr.posPred[pickSlot]}
		if pickSlot == slot {
			op.kind = opScanDelta
		}
		// Index probes: arguments fully bound before this literal binds
		// anything.
		args := pr.rule.Body[pick].Atom.Args
		for ai, t := range args {
			if termBoundUnder(t, pr, bound) {
				op.probes = append(op.probes, probeArg{argPos: ai, expr: pr.compileExpr(t)})
			}
		}
		op.match = make([]argMatch, len(args))
		for ai, t := range args {
			op.match[ai] = pr.compileMatch(t, bound)
		}
		done[pick] = true
		plan.join = append(plan.join, pick)
		plan.ops = append(plan.ops, op)
		flush()
	}

	// Negative literals are resolved at emission; everything else must
	// have been scheduled.
	for i := range pr.body {
		if pr.body[i].kind == litNeg {
			done[i] = true
		}
	}
	for i := range done {
		if !done[i] {
			return nil, stuckRuleError(pr.rule, done, func(name string) bool {
				for r, v := range pr.vars {
					if v == name {
						return bound[r]
					}
				}
				return false
			})
		}
	}
	plan.ops = append(plan.ops, planOp{kind: opEmit})
	return plan, nil
}

// termBoundUnder reports whether every variable of the term is bound in
// the static bound set.
func termBoundUnder(t Term, pr *plannedRule, bound []bool) bool {
	ok := true
	walkTermVars(t, func(v Variable) {
		if !bound[pr.reg(v.Name)] {
			ok = false
		}
	})
	return ok
}

// stuckRuleError reports a rule whose remaining literals can never
// become processable: it names the rule's source position and each
// unresolved literal together with its unbound variables, so
// safety-check escapes are diagnosable from the message alone.
func stuckRuleError(r Rule, done []bool, isBound func(string) bool) error {
	var parts []string
	for i, l := range r.Body {
		if done[i] {
			continue
		}
		var unbound []string
		seen := map[string]bool{}
		for v := range l.Variables() {
			if !isBound(v) && !seen[v] {
				seen[v] = true
				unbound = append(unbound, v)
			}
		}
		sort.Strings(unbound)
		desc := l.String()
		if len(unbound) > 0 {
			desc += " (unbound " + strings.Join(unbound, ", ") + ")"
		}
		parts = append(parts, desc)
	}
	where := ""
	if r.Pos.Valid() {
		where = fmt.Sprintf(" at %s", r.Pos)
	}
	return fmt.Errorf("grounder stuck%s on rule %q: cannot schedule %s",
		where, r.String(), strings.Join(parts, "; "))
}

// ---------------------------------------------------------------------
// VM execution
// ---------------------------------------------------------------------

// vmFrame is one open scan: the op, its candidate list, and the cursor.
type vmFrame struct {
	pc    int32
	next  int32
	cands []int32
}

// planCandidates narrows the candidate facts of a scan op by probing
// the per-argument indexes with the op's fully-bound arguments,
// keeping the smallest bucket.
func (g *grounder) planCandidates(rel *relation, op *planOp, pr *plannedRule) []int32 {
	if len(rel.ids) < indexMinFacts || len(op.probes) == 0 {
		return rel.ids
	}
	best := rel.ids
	for i := range op.probes {
		p := &op.probes[i]
		ev, err := evalExpr(&p.expr, pr, g.regs)
		if err != nil {
			// The argument cannot evaluate; no fact can match.
			return nil
		}
		lst := rel.index(p.argPos, g.in)[termArgKey(ev)]
		if len(lst) < len(best) {
			best = lst
		}
		if len(best) == 0 {
			return nil
		}
	}
	return best
}

// runPlan executes a compiled plan: an iterative backtracking join over
// the plan's ops with an explicit choice stack. No recursion, no
// closures, no binding maps — registers are plain slice stores.
func (g *grounder) runPlan(pr *plannedRule, plan *groundPlan, deltaCands []int32) error {
	if cap(g.regs) < len(pr.vars) {
		g.regs = make([]Term, len(pr.vars)+8)
	}
	g.regs = g.regs[:cap(g.regs)]
	if cap(g.sMatched) < len(pr.body) {
		g.sMatched = make([]int32, len(pr.body)+8)
	}
	g.sMatched = g.sMatched[:cap(g.sMatched)]
	frames := g.frames[:0]
	defer func() { g.frames = frames[:0] }()

	ops := plan.ops
	pc := 0
	for {
		op := &ops[pc]
		switch op.kind {
		case opScan, opScanDelta:
			var cands []int32
			if op.kind == opScanDelta {
				cands = deltaCands
			} else if rel := g.rel[op.pred]; rel != nil {
				cands = g.planCandidates(rel, op, pr)
			}
			frames = append(frames, vmFrame{pc: int32(pc), cands: cands})
		case opBind:
			v, err := evalExpr(&op.e1, pr, g.regs)
			if err != nil {
				return err
			}
			g.regs[op.reg] = v
			pc++
			continue
		case opCmp:
			lt, err := evalExpr(&op.e1, pr, g.regs)
			if err != nil {
				return err
			}
			rt, err := evalExpr(&op.e2, pr, g.regs)
			if err != nil {
				return err
			}
			if cmpHolds(op.cop, CompareTerms(lt, rt)) {
				pc++
				continue
			}
		default: // opEmit
			if err := g.emitPlanned(pr); err != nil {
				return err
			}
		}

		// Backtrack: advance the innermost open scan, popping exhausted
		// frames.
		advanced := false
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			sop := &ops[fr.pc]
			atoms := g.in.atoms
			for int(fr.next) < len(fr.cands) {
				id := fr.cands[fr.next]
				fr.next++
				g.scanned++
				if g.matchArgs(sop.match, atoms[id].Args, pr) {
					g.sMatched[sop.lit] = id
					pc = int(fr.pc) + 1
					advanced = true
					break
				}
			}
			if advanced {
				break
			}
			frames = frames[:len(frames)-1]
		}
		if !advanced {
			return nil
		}
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNeq:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLeq:
		return c <= 0
	case CmpGt:
		return c > 0
	default: // CmpGeq
		return c >= 0
	}
}

// emitPlanned records a fully bound instance: positive body ids from
// the matched slots, negative atoms and the head evaluated from their
// templates through the interner's key-probe fast path, with the id
// slices carved from the grounder's arena.
func (g *grounder) emitPlanned(pr *plannedRule) error {
	npos, nneg := len(pr.posIdx), len(pr.negs)
	buf := g.arena.alloc(npos + nneg)
	inst := groundInstance{head: -1}
	if npos > 0 {
		pos := buf[:npos:npos]
		for i, li := range pr.posIdx {
			pos[i] = g.sMatched[li]
		}
		inst.pos = pos
	}
	if nneg > 0 {
		neg := buf[npos:]
		for i := range pr.negs {
			id, err := g.internTemplate(&pr.negs[i], pr)
			if err != nil {
				return err
			}
			neg[i] = id
		}
		inst.neg = neg
	}
	if pr.headTpl != nil {
		id, err := g.internTemplate(pr.headTpl, pr)
		if err != nil {
			return err
		}
		g.addAtomID(id)
		inst.head = id
	}
	g.pending = append(g.pending, inst)
	return nil
}

// internTemplate evaluates an atom template over the registers and
// interns the result. The atom key is rendered into a reusable buffer
// and probed first, so re-derived atoms (the overwhelmingly common
// case in fixpoint rounds) intern without allocating.
func (g *grounder) internTemplate(t *atomTemplate, pr *plannedRule) (int32, error) {
	buf := g.keyBuf[:0]
	buf = append(buf, t.pred...)
	buf = append(buf, '/')
	args := g.argBuf[:0]
	for i := range t.args {
		v, err := evalExpr(&t.args[i], pr, g.regs)
		if err != nil {
			g.keyBuf = buf
			g.argBuf = args[:0]
			return -1, err
		}
		args = append(args, v)
		buf = appendTermKey(buf, v)
		buf = append(buf, ';')
	}
	g.keyBuf = buf
	g.argBuf = args[:0]
	return g.internKeyed(t.pred, buf, args), nil
}

// internGroundAtom interns a ground source atom (a fact head) through
// the same keyed probe as internTemplate, evaluating arithmetic per
// argument.
func (g *grounder) internGroundAtom(a Atom) (int32, error) {
	buf := g.keyBuf[:0]
	buf = append(buf, a.Predicate...)
	buf = append(buf, '/')
	args := g.argBuf[:0]
	for _, t := range a.Args {
		v, err := EvalArith(t)
		if err != nil {
			g.keyBuf = buf
			g.argBuf = args[:0]
			return -1, err
		}
		args = append(args, v)
		buf = appendTermKey(buf, v)
		buf = append(buf, ';')
	}
	g.keyBuf = buf
	g.argBuf = args[:0]
	return g.internKeyed(a.Predicate, buf, args), nil
}

// appendAtomKey renders an atom's key, the bytes Atom.Key returns, into
// dst.
func appendAtomKey(dst []byte, a Atom) []byte {
	dst = append(dst, a.Predicate...)
	dst = append(dst, '/')
	for _, t := range a.Args {
		dst = appendTermKey(dst, t)
		dst = append(dst, ';')
	}
	return dst
}

// internKeyed resolves a pre-rendered atom key, interning a fresh atom
// (with copied args) on first sight. Probing via map[string]X lookup on
// string(buf) never allocates.
func (g *grounder) internKeyed(pred string, buf []byte, args []Term) int32 {
	if id, ok := g.in.index[string(buf)]; ok {
		return id
	}
	a := Atom{Predicate: pred}
	if len(args) > 0 {
		a.Args = append([]Term(nil), args...)
	}
	id := int32(len(g.in.atoms))
	g.in.atoms = append(g.in.atoms, a)
	g.in.index[string(buf)] = id
	for int(id) >= len(g.inDomain) {
		g.inDomain = append(g.inDomain, false)
	}
	return id
}

// i32Arena hands out []int32 blocks from chunked backing arrays, so
// emitted instances stop paying two small allocations each. Blocks stay
// valid until reset, which reuses the current chunk for the next
// grounding.
type i32Arena struct {
	cur []int32
}

const (
	arenaChunkMin = 256
	arenaChunkMax = 8192
)

func (a *i32Arena) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		// Chunks grow geometrically so small programs don't pay for a
		// large chunk, while big groundings settle into few allocations.
		sz := cap(a.cur) * 2
		if sz < arenaChunkMin {
			sz = arenaChunkMin
		}
		if sz > arenaChunkMax {
			sz = arenaChunkMax
		}
		if n > sz {
			sz = n
		}
		a.cur = make([]int32, 0, sz)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start+n : start+n]
}

// reset reuses the current chunk from the top; every block handed out
// before is dead.
func (a *i32Arena) reset() { a.cur = a.cur[:0] }

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

// PlanInfo describes one compiled grounding plan for introspection
// (asolve -plan).
type PlanInfo struct {
	// Rule is the source rule.
	Rule string
	// Pos is the rule's source position ("" when built programmatically).
	Pos string
	// Delta names the delta-pinned literal of a semi-naive plan, or ""
	// for the full-join plan.
	Delta string
	// Join lists the scheduled positive literals in join order.
	Join []string
	// Steps renders every op in execution order.
	Steps []string
}

func describePlan(pr *plannedRule, plan *groundPlan, slot int) PlanInfo {
	info := PlanInfo{Rule: pr.rule.String()}
	if pr.rule.Pos.Valid() {
		info.Pos = pr.rule.Pos.String()
	}
	if slot >= 0 {
		info.Delta = pr.rule.Body[pr.posIdx[slot]].String()
	}
	for _, li := range plan.join {
		info.Join = append(info.Join, pr.rule.Body[li].String())
	}
	for i := range plan.ops {
		op := &plan.ops[i]
		switch op.kind {
		case opScan:
			s := "scan " + pr.rule.Body[op.lit].String()
			if len(op.probes) > 0 {
				var idx []string
				for _, p := range op.probes {
					idx = append(idx, fmt.Sprintf("arg%d", p.argPos))
				}
				s += " [probe " + strings.Join(idx, ",") + "]"
			}
			info.Steps = append(info.Steps, s)
		case opScanDelta:
			info.Steps = append(info.Steps, "delta-scan "+pr.rule.Body[op.lit].String())
		case opBind:
			l := pr.rule.Body[op.lit]
			expr := l.Rhs
			if v, ok := l.Lhs.(Variable); !ok || pr.reg(v.Name) != int(op.reg) {
				expr = l.Lhs
			}
			info.Steps = append(info.Steps, fmt.Sprintf("bind %s := %s", pr.vars[op.reg], expr))
		case opCmp:
			info.Steps = append(info.Steps, "test "+pr.rule.Body[op.lit].String())
		default:
			emit := ":-"
			if pr.headTpl != nil {
				h := pr.rule.Head.String()
				emit = h
			}
			info.Steps = append(info.Steps, "emit "+emit)
		}
	}
	return info
}

// String renders the plan info as an indented block.
func (pi PlanInfo) String() string {
	var sb strings.Builder
	sb.WriteString(pi.Rule)
	if pi.Pos != "" {
		sb.WriteString("  % at ")
		sb.WriteString(pi.Pos)
	}
	if pi.Delta != "" {
		sb.WriteString("  % delta: ")
		sb.WriteString(pi.Delta)
	}
	sb.WriteByte('\n')
	for _, s := range pi.Steps {
		sb.WriteString("    ")
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GroundWithPlans grounds the program and returns the grounding plans
// compiled along the way, in compilation order, for debugging join
// orders. Plans are per (rule, delta-position); only plans the fixpoint
// actually needed appear.
func GroundWithPlans(p *Program, opts GroundingOptions) (*GroundProgram, []PlanInfo, error) {
	normal, err := prepare(p)
	if err != nil {
		return nil, nil, err
	}
	g := newGrounder(opts)
	var trace []PlanInfo
	g.planTrace = &trace
	if err := g.groundRules(normal.Rules); err != nil {
		g.release()
		return nil, trace, err
	}
	out := g.finalize()
	g.flushPlanStats()
	g.release()
	return out, trace, nil
}
