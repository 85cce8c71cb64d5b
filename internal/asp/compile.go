package asp

// Clause-form compilation: a GroundProgram is translated once into the
// Clark-completion nogoods the CDNL engine searches over. Every atom
// and every distinct rule body gets a solver variable; a literal is
// 2*v for "v true" and 2*v+1 for "v false". For a body β = l1,...,lm
// the compiler emits
//
//	(β ∨ ¬l1 ∨ ... ∨ ¬lm)   body is true once all its literals hold
//	(¬β ∨ li)               and forces each literal while true
//
// for every atom a with supporting bodies β1..βk
//
//	(¬a ∨ β1 ∨ ... ∨ βk)    a needs a true body (unit ¬a when k = 0)
//	(a ∨ ¬βi)               and any true body derives a
//
// and for every constraint body the unit (¬β). Completion alone is
// stable-model exact only for tight programs; the compiler therefore
// marks the atoms on positive dependency cycles so the solver knows
// when to run its unfounded-set check.
//
// The clause arena is [size, lits...] records; a clause ref is the
// offset of its size word. The arena is read-only during solving
// (learned clauses live in solver-private storage), so one compiled
// program may serve concurrent solves of the same ground program.

// pLit / nLit build the positive ("v true") and negative literal of a
// variable; litVar recovers the variable.
func pLit(v int32) int32   { return v << 1 }
func nLit(v int32) int32   { return v<<1 | 1 }
func litVar(l int32) int32 { return l >> 1 }

// CompiledProgram is the clause form of a ground program: completion
// clauses over atom and body variables plus the positive-dependency
// cycle information the unfounded-set check needs. Build one with
// compileGround (or transparently via GroundProgram.clauseForm) and
// reuse it across solves.
type CompiledProgram struct {
	// Atom a is solver variable a; body variables follow the atoms.
	nAtoms int32
	nVars  int32

	arena []int32 // clause store: [size, lits...]*

	// Body structure. bodyLit[bodyOff[b]:bodyOff[b+1]] lists the atom
	// literals body b requires (pLit for positive, nLit for negated),
	// over atom variables.
	bodyOff   []int32
	bodyLit   []int32
	bodyVarID []int32          // body id -> solver variable
	bodyKey   map[string]int32 // canonical body literals -> body id

	heads    [][]int32 // per body: head atoms it supports
	supports [][]int32 // per atom: bodies supporting it

	// Positive-dependency cycle info. cyclic[a] marks atoms on a
	// positive cycle; tight programs (nCyclic == 0) skip the
	// unfounded-set machinery entirely.
	cyclic  []bool
	nCyclic int32

	keyBuf []byte  // scratch for body interning
	litBuf []int32 // scratch for body literal canonicalisation
}

// compileGround builds the clause form of a ground program.
func compileGround(g *GroundProgram) *CompiledProgram {
	n := int32(g.NumAtoms())
	// Pre-size the clause arena and support lists from one pass over the
	// rules: a body of m literals costs at most 2+4m arena words (body
	// definition plus m literal clauses), a head/constraint rule 3 more,
	// and every atom's support clause 2 plus one word per supporting
	// body. Upper bounds — body dedup only shrinks them — so the arena
	// never reallocates and each supports[a] is carved from one block.
	lits, arena := 0, 0
	headCnt := make([]int32, n)
	totalHeads := 0
	for ri := range g.Rules {
		r := &g.Rules[ri]
		m := len(r.PosBody) + len(r.NegBody)
		lits += m
		arena += 2 + 4*m + 3
		if r.Head >= 0 {
			headCnt[r.Head]++
			totalHeads++
		}
	}
	arena += 2*int(n) + totalHeads
	cp := &CompiledProgram{
		nAtoms:    n,
		nVars:     n,
		arena:     make([]int32, 0, arena),
		bodyKey:   make(map[string]int32, len(g.Rules)),
		bodyLit:   make([]int32, 0, lits),
		bodyOff:   make([]int32, 1, len(g.Rules)+1),
		bodyVarID: make([]int32, 0, len(g.Rules)),
		heads:     make([][]int32, 0, len(g.Rules)),
		supports:  make([][]int32, n),
	}
	supBlock := make([]int32, totalHeads)
	off := 0
	for a := int32(0); a < n; a++ {
		c := int(headCnt[a])
		cp.supports[a] = supBlock[off : off : off+c]
		off += c
	}
	cp.addRules(g.Rules)
	for a := int32(0); a < n; a++ {
		cp.emitSupport(a)
	}
	cp.computeCyclic()
	return cp
}

// clauseForm returns the cached clause form of the program, compiling
// it on first use.
func (g *GroundProgram) clauseForm() *CompiledProgram {
	if g.cp == nil {
		g.cp = compileGround(g)
	}
	return g.cp
}

// beginClause/endClause bracket arena clause emission.
func (cp *CompiledProgram) beginClause() int32 {
	ref := int32(len(cp.arena))
	cp.arena = append(cp.arena, 0) // size
	return ref
}

func (cp *CompiledProgram) endClause(ref int32) {
	cp.arena[ref] = int32(len(cp.arena)) - ref - 1
}

func (cp *CompiledProgram) emit2(a, b int32) {
	ref := cp.beginClause()
	cp.arena = append(cp.arena, a, b)
	cp.endClause(ref)
}

func (cp *CompiledProgram) emit1(a int32) {
	ref := cp.beginClause()
	cp.arena = append(cp.arena, a)
	cp.endClause(ref)
}

// internBody canonicalises a rule body into a body id, emitting the
// body-definition clauses on first sight.
func (cp *CompiledProgram) internBody(pos, neg []int32) int32 {
	lits := cp.litBuf[:0]
	for _, a := range pos {
		lits = append(lits, pLit(a))
	}
	for _, a := range neg {
		lits = append(lits, nLit(a))
	}
	// Insertion sort: bodies are short and nearly sorted.
	for i := 1; i < len(lits); i++ {
		for k := i; k > 0 && lits[k] < lits[k-1]; k-- {
			lits[k], lits[k-1] = lits[k-1], lits[k]
		}
	}
	// Dedup in place.
	w := 0
	for i, l := range lits {
		if i > 0 && l == lits[w-1] {
			continue
		}
		lits[w] = l
		w++
	}
	lits = lits[:w]
	cp.litBuf = lits

	key := cp.keyBuf[:0]
	for _, l := range lits {
		key = append(key, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	cp.keyBuf = key
	if b, ok := cp.bodyKey[string(key)]; ok {
		return b
	}
	b := cp.nBodies()
	cp.bodyKey[string(key)] = b
	cp.bodyLit = append(cp.bodyLit, lits...)
	cp.bodyOff = append(cp.bodyOff, int32(len(cp.bodyLit)))
	cp.heads = append(cp.heads, nil)
	vb := cp.nVars
	cp.nVars++
	cp.bodyVarID = append(cp.bodyVarID, vb)

	// Body-true clause: (β ∨ ¬l1 ∨ ... ∨ ¬lm); a fact body is the unit (β).
	ref := cp.beginClause()
	cp.arena = append(cp.arena, pLit(vb))
	for _, l := range lits {
		cp.arena = append(cp.arena, l^1)
	}
	cp.endClause(ref)
	// Literal clauses: (¬β ∨ li).
	for _, l := range lits {
		cp.emit2(nLit(vb), l)
	}
	return b
}

func (cp *CompiledProgram) nBodies() int32 { return int32(len(cp.bodyVarID)) }

// addRules compiles rules into bodies, head-derivation clauses, support
// lists, and constraint units.
func (cp *CompiledProgram) addRules(rules []GroundRule) {
	for ri := range rules {
		r := &rules[ri]
		b := cp.internBody(r.PosBody, r.NegBody)
		if r.Head < 0 {
			// Constraint: the body must never hold.
			cp.emit1(nLit(cp.bodyVarID[b]))
			continue
		}
		if containsInt32(cp.supports[r.Head], b) {
			continue // duplicate (head, body) pair after body canonicalisation
		}
		cp.supports[r.Head] = append(cp.supports[r.Head], b)
		cp.heads[b] = append(cp.heads[b], r.Head)
		// Head-derivation clause: (a ∨ ¬β).
		cp.emit2(pLit(r.Head), nLit(cp.bodyVarID[b]))
	}
}

func containsInt32(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// emitSupport emits an atom's support clause (¬a ∨ β1 ∨ ... ∨ βk),
// degenerating to the unit (¬a) for an atom with no supporting body.
func (cp *CompiledProgram) emitSupport(a int32) {
	ref := cp.beginClause()
	cp.arena = append(cp.arena, nLit(a))
	for _, b := range cp.supports[a] {
		cp.arena = append(cp.arena, pLit(cp.bodyVarID[b]))
	}
	cp.endClause(ref)
}

// computeCyclic finds the atoms on positive dependency cycles (SCC size
// greater than one, or a self-loop) with an iterative Tarjan pass over
// the head -> positive-body-atom graph induced by the body structure.
func (cp *CompiledProgram) computeCyclic() {
	n := int(cp.nAtoms)
	cyclic := make([]bool, n)
	index := make([]int32, n) // 0 = unvisited, else order+1
	low := make([]int32, n)
	onStack := make([]bool, n)
	sccStack := make([]int32, 0, 16)
	next := int32(1)

	// Explicit DFS frames: node plus a cursor over its outgoing edges,
	// flattened as (support index, literal index within that body).
	type frame struct {
		node   int32
		si, li int32
	}
	var stack []frame

	// edgeTarget advances a frame's cursor to its next positive-body
	// atom, returning -1 when the node's edges are exhausted.
	edgeTarget := func(f *frame) int32 {
		sup := cp.supports[f.node]
		for int(f.si) < len(sup) {
			b := sup[f.si]
			lits := cp.bodyLit[cp.bodyOff[b]:cp.bodyOff[b+1]]
			for int(f.li) < len(lits) {
				l := lits[f.li]
				f.li++
				if l&1 == 0 {
					return litVar(l)
				}
			}
			f.si++
			f.li = 0
		}
		return -1
	}

	for root := int32(0); root < int32(n); root++ {
		if index[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{node: root})
		index[root] = next
		low[root] = next
		next++
		sccStack = append(sccStack, root)
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			t := edgeTarget(f)
			if t >= 0 {
				if t == f.node {
					cyclic[t] = true // self-loop
					continue
				}
				if index[t] == 0 {
					stack = append(stack, frame{node: t})
					index[t] = next
					low[t] = next
					next++
					sccStack = append(sccStack, t)
					onStack[t] = true
				} else if onStack[t] && index[t] < low[f.node] {
					low[f.node] = index[t]
				}
				continue
			}
			// Node done: pop, propagate low, close the SCC at its root.
			v := f.node
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && low[v] < low[stack[len(stack)-1].node] {
				low[stack[len(stack)-1].node] = low[v]
			}
			if low[v] == index[v] {
				top := len(sccStack)
				i := top
				for {
					i--
					onStack[sccStack[i]] = false
					if sccStack[i] == v {
						break
					}
				}
				if top-i > 1 {
					for k := i; k < top; k++ {
						cyclic[sccStack[k]] = true
					}
				}
				sccStack = sccStack[:i]
			}
		}
	}

	cp.cyclic = cyclic
	cp.nCyclic = 0
	for _, c := range cyclic {
		if c {
			cp.nCyclic++
		}
	}
}
