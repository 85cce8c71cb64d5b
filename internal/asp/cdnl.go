package asp

// The CDNL engine: conflict-driven nogood learning over the clause form
// built by compile.go. Two-watched-literal unit propagation, an
// activity-ordered decision heuristic (deterministic: ties break toward
// the lowest variable), 1UIP conflict analysis with backjumping and
// learned-clause recording, and — for non-tight programs — a
// source-pointer unfounded-set check that adds loop clauses. Answer
// sets are enumerated by recording a blocking clause over the decision
// literals of each model, so enumeration is deterministic and needs no
// chronological backtracking.
//
// The solver never mutates the CompiledProgram: the arena is copied
// into solver-private storage at init (learned, loop, and blocking
// clauses append to the same private arena), so one compiled program
// can serve concurrent solves.

// cdnlSolver holds the per-solve search state. SolveGround pools
// solvers, so repeated solves reuse every buffer.
type cdnlSolver struct {
	cp   *CompiledProgram
	g    *GroundProgram
	opts SolveOptions

	nVars int32

	arena  []int32   // private copy of the clauses + learned clauses
	watch  [][]int32 // per literal: refs of clauses watching it
	assign []int8    // per var: vUnknown / vTrue / vFalse
	level  []int32   // per var: decision level of its assignment
	reason []int32   // per var: antecedent clause ref, -1 for decisions

	trail    []int32
	trailLim []int32 // trail length at each decision level
	qhead    int32

	activity []float64
	varInc   float64
	heap     []int32 // max-heap of atom variables by activity
	heapPos  []int32 // per var: heap index, -1 if absent

	seen   []uint8
	learnt []int32

	models []*AnswerSet
	unsat  bool
	ctxErr error

	decisions, conflicts, propagations int64
	backjumps, learnedNogoods          int64

	// Unfounded-set machinery, built only for non-tight programs.
	hasCyclic bool
	cyc       []int32 // cyclic atom ids
	cycBodies []int32 // bodies supporting at least one cyclic atom
	bodyCnt   []int32 // per body: pending cyclic pos atoms (-1 = false body)
	cycPosCnt []int32 // per body: total cyclic pos atoms
	posInOff  []int32 // CSR: cyclic atom id -> bodies listing it positively
	posInBody []int32
	founded   []uint8 // per atom id
	sourcePtr []int32 // per atom id: witnessing body from the last lfp
	inU       []uint8 // per atom id: member of the current unfounded set
	bodyMark  []uint8 // per body: scratch marks
	ufQueue   []int32
	ufSet     []int32 // current unfounded set
	extBodies []int32 // external bodies of the current unfounded set
}

const ctxCheckMask = 0xFFF // context poll interval, in propagations

func (s *cdnlSolver) litTrue(l int32) bool {
	a := s.assign[l>>1]
	if a == vUnknown {
		return false
	}
	return (a == vTrue) == (l&1 == 0)
}

func (s *cdnlSolver) litFalse(l int32) bool {
	a := s.assign[l>>1]
	if a == vUnknown {
		return false
	}
	return (a == vTrue) == (l&1 == 1)
}

func (s *cdnlSolver) curLevel() int32 { return int32(len(s.trailLim)) }

// initCDNL readies the solver for one run over g's clause form.
func (s *cdnlSolver) init(g *GroundProgram, cp *CompiledProgram, opts SolveOptions) {
	s.g = g
	s.cp = cp
	s.opts = opts
	s.nVars = cp.nVars
	n := int(cp.nVars)

	s.arena = append(s.arena[:0], cp.arena...)

	s.watch = growLists(s.watch, 2*n)
	s.assign = grow(s.assign, n)
	s.level = grow(s.level, n)
	s.reason = grow(s.reason, n)
	s.activity = grow(s.activity, n)
	s.seen = grow(s.seen, n)
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc = 1
	s.models = s.models[:0]
	s.unsat = false
	s.ctxErr = nil
	s.decisions, s.conflicts, s.propagations = 0, 0, 0
	s.backjumps, s.learnedNogoods = 0, 0

	// Decision heap: every atom variable, in id order (a valid heap at
	// uniform zero activity, so the first decisions run in id order).
	s.heapPos = grow(s.heapPos, n)
	for i := range s.heapPos {
		s.heapPos[i] = -1
	}
	s.heap = s.heap[:0]
	for v := int32(0); v < cp.nAtoms; v++ {
		s.heapPos[v] = v
		s.heap = append(s.heap, v)
	}

	// Watch clauses and enqueue units at level 0.
	for ref := int32(0); ref < int32(len(s.arena)); {
		size := s.arena[ref]
		if size == 1 {
			l := s.arena[ref+1]
			if s.litFalse(l) {
				s.unsat = true
				return
			}
			if !s.litTrue(l) {
				s.enqueue(l, ref)
			}
		} else {
			s.watch[s.arena[ref+1]] = append(s.watch[s.arena[ref+1]], ref)
			s.watch[s.arena[ref+2]] = append(s.watch[s.arena[ref+2]], ref)
		}
		ref += size + 1
	}

	s.initUnfounded(cp)
}

// initUnfounded builds the cyclic-atom indexes the unfounded-set check
// walks. Tight programs (the common case) skip all of it.
func (s *cdnlSolver) initUnfounded(cp *CompiledProgram) {
	s.hasCyclic = cp.nCyclic > 0
	if !s.hasCyclic {
		return
	}
	nA := int(cp.nAtoms)
	nB := int(cp.nBodies())
	s.cyc = s.cyc[:0]
	for a := 0; a < nA; a++ {
		if cp.cyclic[a] {
			s.cyc = append(s.cyc, int32(a))
		}
	}
	s.founded = grow(s.founded, nA)
	s.inU = grow(s.inU, nA)
	s.sourcePtr = grow(s.sourcePtr, nA)
	for i := range s.sourcePtr {
		s.sourcePtr[i] = -1
	}
	s.bodyCnt = grow(s.bodyCnt, nB)
	s.cycPosCnt = grow(s.cycPosCnt, nB)
	s.bodyMark = grow(s.bodyMark, nB)

	// Bodies supporting at least one cyclic atom, deduplicated.
	s.cycBodies = s.cycBodies[:0]
	for _, a := range s.cyc {
		for _, b := range cp.supports[a] {
			if s.bodyMark[b] == 0 {
				s.bodyMark[b] = 1
				s.cycBodies = append(s.cycBodies, b)
			}
		}
	}
	for _, b := range s.cycBodies {
		s.bodyMark[b] = 0
	}

	// Count cyclic positive atoms per body and build the reverse CSR
	// (cyclic atom -> bodies mentioning it positively).
	s.posInOff = grow(s.posInOff, nA+1)
	for _, b := range s.cycBodies {
		n := int32(0)
		for _, l := range cp.bodyLit[cp.bodyOff[b]:cp.bodyOff[b+1]] {
			if a := litVar(l); l&1 == 0 && cp.cyclic[a] {
				n++
				s.posInOff[a+1]++
			}
		}
		s.cycPosCnt[b] = n
	}
	for a := 0; a < nA; a++ {
		s.posInOff[a+1] += s.posInOff[a]
	}
	total := int(s.posInOff[nA])
	if cap(s.posInBody) < total {
		s.posInBody = make([]int32, total)
	}
	s.posInBody = s.posInBody[:total]
	cursor := append([]int32(nil), s.posInOff[:nA]...)
	for _, b := range s.cycBodies {
		for _, l := range cp.bodyLit[cp.bodyOff[b]:cp.bodyOff[b+1]] {
			if a := litVar(l); l&1 == 0 && cp.cyclic[a] {
				s.posInBody[cursor[a]] = b
				cursor[a]++
			}
		}
	}
}

func (s *cdnlSolver) enqueue(l int32, reason int32) {
	v := l >> 1
	if l&1 == 0 {
		s.assign[v] = vTrue
	} else {
		s.assign[v] = vFalse
	}
	s.level[v] = s.curLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint, returning the ref of a
// conflicting clause or -1.
func (s *cdnlSolver) propagate() int32 {
	for s.qhead < int32(len(s.trail)) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		if s.opts.Context != nil && s.propagations&ctxCheckMask == 0 {
			if err := s.opts.Context.Err(); err != nil {
				s.ctxErr = err
				return -1
			}
		}
		fl := p ^ 1 // the literal that just became false
		ws := s.watch[fl]
		j := 0
		for i := 0; i < len(ws); i++ {
			ref := ws[i]
			size := s.arena[ref]
			lits := s.arena[ref+1 : ref+1+size]
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.litTrue(lits[0]) {
				ws[j] = ref
				j++
				continue
			}
			moved := false
			for k := 2; k < int(size); k++ {
				if !s.litFalse(lits[k]) {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch[lits[1]] = append(s.watch[lits[1]], ref)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = ref
			j++
			if s.litFalse(lits[0]) {
				// Conflict: keep the remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watch[fl] = ws[:j]
				return ref
			}
			s.enqueue(lits[0], ref)
		}
		s.watch[fl] = ws[:j]
	}
	return -1
}

func (s *cdnlSolver) bumpActivity(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.siftUp(s.heapPos[v])
	}
}

// heapLess orders the decision heap: higher activity first, lower
// variable id on ties (the determinism anchor).
func (s *cdnlSolver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *cdnlSolver) siftUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[p]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *cdnlSolver) siftDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[c]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *cdnlSolver) heapPush(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.siftUp(s.heapPos[v])
}

func (s *cdnlSolver) heapPop() int32 {
	v := s.heap[0]
	s.heapPos[v] = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.siftDown(0)
	}
	return v
}

// backtrack unassigns everything above toLevel, returning atom vars to
// the decision heap.
func (s *cdnlSolver) backtrack(toLevel int32) {
	limit := int(s.trailLim[toLevel])
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i] >> 1
		s.assign[v] = vUnknown
		if v < s.cp.nAtoms && s.heapPos[v] < 0 {
			s.heapPush(v)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:toLevel]
	s.qhead = int32(len(s.trail))
}

// addClause appends lits to the private arena (watching the first two
// literals when binary or longer) and returns its ref.
func (s *cdnlSolver) addClause(lits []int32) int32 {
	ref := int32(len(s.arena))
	s.arena = append(s.arena, int32(len(lits)))
	s.arena = append(s.arena, lits...)
	if len(lits) >= 2 {
		s.watch[lits[0]] = append(s.watch[lits[0]], ref)
		s.watch[lits[1]] = append(s.watch[lits[1]], ref)
	}
	return ref
}

// analyze derives the 1UIP clause from a conflict. The learned clause
// lands in s.learnt with the asserting literal first and a literal of
// the backjump level second; it returns the backjump level.
func (s *cdnlSolver) analyze(confl int32) int32 {
	s.learnt = s.learnt[:0]
	s.learnt = append(s.learnt, -1) // asserting literal placeholder
	counter := 0
	p := int32(-1)
	idx := len(s.trail) - 1
	ref := confl
	for {
		size := s.arena[ref]
		lits := s.arena[ref+1 : ref+1+size]
		start := 0
		if p >= 0 {
			start = 1 // lits[0] is the propagated literal itself
		}
		for _, q := range lits[start:] {
			v := q >> 1
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpActivity(v)
				if s.level[v] == s.curLevel() {
					counter++
				} else {
					s.learnt = append(s.learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx]>>1] == 0 {
			idx--
		}
		p = s.trail[idx]
		v := p >> 1
		s.seen[v] = 0
		idx--
		counter--
		if counter == 0 {
			s.learnt[0] = p ^ 1
			break
		}
		ref = s.reason[v]
	}
	// Clear marks and find the backjump level (max level in the tail),
	// moving one of its literals to the second watch position.
	back := int32(0)
	backIdx := -1
	for i := 1; i < len(s.learnt); i++ {
		v := s.learnt[i] >> 1
		s.seen[v] = 0
		if s.level[v] > back {
			back = s.level[v]
			backIdx = i
		}
	}
	if backIdx > 1 {
		s.learnt[1], s.learnt[backIdx] = s.learnt[backIdx], s.learnt[1]
	}
	s.varInc *= 1.0 / 0.95
	return back
}

// handleConflict learns the 1UIP clause, backjumps, and asserts.
func (s *cdnlSolver) handleConflict(confl int32) {
	back := s.analyze(confl)
	if back < s.curLevel()-1 {
		s.backjumps++
	}
	s.backtrack(back)
	ref := s.addClause(s.learnt)
	s.learnedNogoods++
	s.enqueue(s.learnt[0], ref)
}

// sourcesOK reports whether every non-false cyclic atom still has a
// non-false source body from the last founded-set fixpoint. While it
// holds, the expensive recomputation is skipped: the source graph of a
// full fixpoint is acyclic, and backtracking only turns assignments
// back to unknown, which keeps non-false bodies non-false.
func (s *cdnlSolver) sourcesOK() bool {
	cp := s.cp
	for _, a := range s.cyc {
		if s.assign[a] == vFalse {
			continue
		}
		sp := s.sourcePtr[a]
		if sp < 0 || s.assign[cp.bodyVarID[sp]] == vFalse {
			return false
		}
	}
	return true
}

// computeFounded runs the founded-set fixpoint over the cyclic atoms:
// an atom is founded once some supporting body is not assigned false
// and has all of its cyclic positive atoms founded. Source pointers
// record the witnessing body.
func (s *cdnlSolver) computeFounded() {
	cp := s.cp
	for _, a := range s.cyc {
		s.founded[a] = 0
		s.sourcePtr[a] = -1
	}
	s.ufQueue = s.ufQueue[:0]
	found := func(b int32) {
		for _, h := range cp.heads[b] {
			if cp.cyclic[h] && s.founded[h] == 0 {
				s.founded[h] = 1
				s.sourcePtr[h] = b
				s.ufQueue = append(s.ufQueue, h)
			}
		}
	}
	for _, b := range s.cycBodies {
		if s.assign[cp.bodyVarID[b]] == vFalse {
			s.bodyCnt[b] = -1
			continue
		}
		s.bodyCnt[b] = s.cycPosCnt[b]
		if s.bodyCnt[b] == 0 {
			found(b)
		}
	}
	for qi := 0; qi < len(s.ufQueue); qi++ {
		a := s.ufQueue[qi]
		for _, b := range s.posInBody[s.posInOff[a]:s.posInOff[a+1]] {
			if s.bodyCnt[b] <= 0 {
				continue
			}
			s.bodyCnt[b]--
			if s.bodyCnt[b] == 0 {
				found(b)
			}
		}
	}
}

// unfoundedCheck falsifies unfounded cyclic atoms via loop clauses.
// It returns the ref of a conflicting loop clause (an unfounded atom
// already assigned true) or -1, plus whether any literal was enqueued
// (the caller must re-propagate).
func (s *cdnlSolver) unfoundedCheck() (int32, bool) {
	if s.sourcesOK() {
		return -1, false
	}
	s.computeFounded()
	cp := s.cp
	s.ufSet = s.ufSet[:0]
	for _, a := range s.cyc {
		if s.founded[a] == 0 && s.assign[a] != vFalse {
			s.ufSet = append(s.ufSet, a)
			s.inU[a] = 1
		}
	}
	if len(s.ufSet) == 0 {
		return -1, false
	}
	// External bodies of U: bodies of rules with head in U and no
	// positive atom in U. The fixpoint guarantees they are all false
	// here (a non-false external body would have founded its heads),
	// and the loop clause (¬a ∨ ext1 ∨ ... ∨ extk) is valid for every
	// stable model, so it can be recorded permanently for this run.
	s.extBodies = s.extBodies[:0]
	for _, a := range s.ufSet {
		for _, b := range cp.supports[a] {
			if s.bodyMark[b] != 0 {
				continue
			}
			s.bodyMark[b] = 1
			internal := false
			for _, l := range cp.bodyLit[cp.bodyOff[b]:cp.bodyOff[b+1]] {
				if l&1 == 0 && s.inU[litVar(l)] != 0 {
					internal = true
					break
				}
			}
			if !internal {
				s.extBodies = append(s.extBodies, b)
			}
		}
	}
	for _, a := range s.ufSet {
		for _, b := range cp.supports[a] {
			s.bodyMark[b] = 0
		}
	}

	conflict := int32(-1)
	changed := false
	for _, a := range s.ufSet {
		s.inU[a] = 0
		if conflict >= 0 {
			continue
		}
		// Loop clause: lits[0] is ¬a; the second slot holds the
		// highest-level external body literal so the watches behave
		// after backjumping.
		s.learnt = s.learnt[:0]
		s.learnt = append(s.learnt, nLit(a))
		maxIdx := -1
		var maxLvl int32 = -1
		for _, b := range s.extBodies {
			bv := cp.bodyVarID[b]
			s.learnt = append(s.learnt, pLit(bv))
			if s.level[bv] > maxLvl {
				maxLvl = s.level[bv]
				maxIdx = len(s.learnt) - 1
			}
		}
		if maxIdx > 1 {
			s.learnt[1], s.learnt[maxIdx] = s.learnt[maxIdx], s.learnt[1]
		}
		ref := s.addClause(s.learnt)
		s.learnedNogoods++
		if s.assign[a] == vTrue {
			conflict = ref
		} else if s.assign[a] == vUnknown {
			s.enqueue(nLit(a), ref)
			changed = true
		}
	}
	return conflict, changed
}

// pickBranch pops the highest-activity unassigned atom variable, or -1
// when every atom is assigned (a model).
func (s *cdnlSolver) pickBranch() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == vUnknown {
			return v
		}
	}
	return -1
}

func (s *cdnlSolver) recordModel() {
	atoms := make([]Atom, 0, 16)
	cp := s.cp
	for a := int32(0); a < cp.nAtoms; a++ {
		if s.assign[a] == vTrue && !isInternalAtom(s.g.Atoms[a]) {
			atoms = append(atoms, s.g.Atoms[a])
		}
	}
	s.models = append(s.models, NewAnswerSet(atoms...))
}

// blockModel records a blocking clause over the decision literals of
// the model just found and backtracks one level, asserting the negation
// of the last decision. The propagation-closed assignment is unique per
// decision set, so this enumerates each answer set exactly once.
func (s *cdnlSolver) blockModel() {
	k := s.curLevel()
	s.learnt = s.learnt[:0]
	last := s.trail[s.trailLim[k-1]]
	s.learnt = append(s.learnt, last^1)
	for i := k - 2; i >= 0; i-- {
		s.learnt = append(s.learnt, s.trail[s.trailLim[i]]^1)
	}
	s.backtrack(k - 1)
	ref := s.addClause(s.learnt)
	s.enqueue(s.learnt[0], ref)
}

// run enumerates answer sets until MaxModels, exhaustion, or a budget
// error.
func (s *cdnlSolver) run() error {
	if s.unsat {
		return nil
	}
	ctx := s.opts.Context
	for {
		confl := s.propagate()
		if s.ctxErr != nil {
			return s.ctxErr
		}
		if confl < 0 && s.hasCyclic {
			var changed bool
			confl, changed = s.unfoundedCheck()
			if confl < 0 && changed {
				continue
			}
		}
		if confl >= 0 {
			s.conflicts++
			if s.curLevel() == 0 {
				return nil
			}
			s.handleConflict(confl)
			continue
		}
		v := s.pickBranch()
		if v < 0 {
			s.recordModel()
			if s.opts.MaxModels > 0 && len(s.models) >= s.opts.MaxModels {
				return nil
			}
			if s.curLevel() == 0 {
				return nil
			}
			s.blockModel()
			continue
		}
		s.decisions++
		if s.opts.MaxDecisions > 0 && s.decisions > s.opts.MaxDecisions {
			return ErrSearchBudget
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(nLit(v), -1)
	}
}
