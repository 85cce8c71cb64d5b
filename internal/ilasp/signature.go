package ilasp

import (
	"encoding/binary"
	"fmt"
	"sync"

	"agenp/internal/asp"
)

// Coverage signatures: for independent hypothesis spaces (candidate
// heads feed nothing — the LearnIndependent condition — and constraints
// read no candidate head), a hypothesis's coverage of an example
// decomposes over its candidates. The same holds for ASG tasks whose
// candidates are all constraints (package asglearn). Each candidate then
// gets a pair of bitsets computed once up front:
//
//   - req:  over the global requirement index (one bit per (example,
//     needed inclusion) pair) — which requirements the candidate's
//     one-step derivation satisfies;
//   - viol: over examples — where the candidate derives an excluded atom
//     or, for a constraint, where its body holds in the base model.
//
// A hypothesis H admits a witnessing answer set for example e iff the
// base is feasible for e, no chosen candidate violates e, and the OR of
// the chosen req signatures covers e's requirement range. Coverage is
// the witness bit for positive examples and its negation for negative
// ones. A coverage check then becomes word-wide OR/AND over []uint64
// instead of a ground-and-solve per (hypothesis, example) pair, with
// verdicts replayed in example order so check counting, MaxChecks
// budgeting, and the chosen solution follow the re-solve path (only
// dominance pruning, which skips hypotheses, lowers the count).
// LearnIndependent's set-cover searches read the same signatures.

// sigWords is a little-endian bitset.
type sigWords []uint64

func newSig(nbits int) sigWords { return make(sigWords, (nbits+63)/64) }

func (s sigWords) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s sigWords) unset(i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s sigWords) get(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// empty reports whether no bit is set.
func (s sigWords) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s sigWords) clear() {
	for w := range s {
		s[w] = 0
	}
}

// orInto ORs s into dst (same length).
func (s sigWords) orInto(dst sigWords) {
	for w := range s {
		dst[w] |= s[w]
	}
}

// subsetOf reports whether every bit of s is set in u.
func (s sigWords) subsetOf(u sigWords) bool {
	for w := range s {
		if s[w]&^u[w] != 0 {
			return false
		}
	}
	return true
}

// allSet reports whether every bit in [lo,hi) is set.
func (s sigWords) allSet(lo, hi int) bool {
	if lo >= hi {
		return true
	}
	wlo, whi := lo>>6, (hi-1)>>6
	if wlo == whi {
		mask := (^uint64(0) >> (64 - uint(hi-lo))) << (uint(lo) & 63)
		return s[wlo]&mask == mask
	}
	first := ^uint64(0) << (uint(lo) & 63)
	if s[wlo]&first != first {
		return false
	}
	for w := wlo + 1; w < whi; w++ {
		if s[w] != ^uint64(0) {
			return false
		}
	}
	last := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	return s[whi]&last == last
}

// coverVectors holds the per-candidate signatures of a vectorizable
// task. Immutable after vectorize; safe for concurrent reads.
type coverVectors struct {
	n    int // examples
	nreq int // total requirement bits

	// reqOff[e]..reqOff[e+1] is example e's requirement bit range.
	reqOff   []int
	feasible []bool // base solvable and no exclusion pre-derived
	positive []bool // example polarity

	req  []sigWords // per candidate, over requirement bits
	viol []sigWords // per candidate, over examples
}

// unionSig is the OR of the chosen candidates' signatures — the scratch
// state of one hypothesis evaluation.
type unionSig struct {
	req  sigWords
	viol sigWords
}

// unionInto recomputes u as the union over the chosen candidates,
// reusing u's buffers.
func (v *coverVectors) unionInto(u *unionSig, chosen []int) {
	if u.req == nil {
		u.req = newSig(v.nreq)
		u.viol = newSig(v.n)
	}
	u.req.clear()
	u.viol.clear()
	for _, ci := range chosen {
		v.req[ci].orInto(u.req)
		v.viol[ci].orInto(u.viol)
	}
}

// witness reports whether the hypothesis with union u admits a
// witnessing answer set for example e.
func (v *coverVectors) witness(u *unionSig, e int) bool {
	if !v.feasible[e] {
		return false
	}
	if u.viol.get(e) {
		return false
	}
	return u.req.allSet(v.reqOff[e], v.reqOff[e+1])
}

// covered reports example e's verdict under the hypothesis with union u.
func (v *coverVectors) covered(u *unionSig, e int) bool {
	if v.positive[e] {
		return v.witness(u, e)
	}
	return !v.witness(u, e)
}

// subsumed reports whether candidate ci adds nothing to the union:
// every requirement it fires and every violation it causes is already
// present, so extending any superset of the chosen set with ci leaves
// every example verdict unchanged and only adds cost.
func (v *coverVectors) subsumed(ci int, u *unionSig) bool {
	return v.req[ci].subsetOf(u.req) && v.viol[ci].subsetOf(u.viol)
}

// Decomposer is the hook through which the signature builder reads an
// oracle whose coverage decomposes over candidates: example i's verdict
// under a hypothesis H is read off the one answer set M of i's base
// program and what the rule instances of H's candidates derive from M in
// one step (see vectorize). Search builds signatures through it when the
// oracle offers it, and falls back to Covers — counting
// ilasp.sig.fallbacks — when the task does not decompose.
type Decomposer interface {
	// Decompose returns the examples as the builder reads them (ID,
	// polarity, inclusions and exclusions; contexts are ignored) with
	// each example's base program, the part of its program every
	// hypothesis shares (nil when no hypothesis has a witness for the
	// example), or why the task does not decompose.
	Decompose() ([]Example, []*asp.Program, error)
	// Instances returns the rules candidate c adds to example i's
	// program; it is called only after Decompose succeeded. It is called
	// concurrently for distinct candidates, and the caller only reads
	// the result.
	Instances(c, i int) []asp.Rule
}

// vectorize is the one signature builder of both learners: it computes
// coverage signatures for a task, or returns why the task does not
// decompose. Decompose states the task-level condition (for ILASP tasks,
// checkIndependence); candidates must further be safe, non-choice rules,
// and each example's base program must have at most one answer set (zero
// makes the example infeasible but stays vectorizable). A headed
// instance sets requirement bits for the missing inclusions it derives
// and the viol bit when it derives an exclusion; a constraint instance
// sets the viol bit when its body holds in the base model, since a
// constraint only removes answer sets and its body reads no candidate
// head.
//
// strict applies LearnIndependent's contract on top: every candidate is
// headed, every example is positive and has exactly one base answer set.
// Errors come out in the order an example-by-example build would meet
// them: the first failing example's base-model error, unless a candidate
// evaluation fails on an earlier example (then the first such
// candidate's error). Search counts the error as a fallback and runs
// the re-solve path, where Task.Covers meets any such error lazily, at
// the first check that reaches it.
//
// The space comes prepared (prepare): its validation is read, not
// redone, and when it carries guards, one scan of each feasible
// example's base model sets the example's bits over the space's guards
// (ground atoms it holds, patterns it fills). A (candidate, example)
// pair whose guard bits are not a subset of them is skipped: a guard is
// missing, so the candidate derives nothing there and EvalPrepared would
// have returned no atom and no error. A decided candidate whose guard
// bits are all held derives exactly its head, or fires, so its bits are
// set without evaluation (counted in ilasp.sig.decided). An example's
// model index is built only when some undecided candidate's guards hold
// there, and only the evaluations run are counted (ilasp.sig.evals).
//
// Evaluation fans out once, on up to width workers (the learners pass
// GOMAXPROCS), sharded by candidate so each worker owns disjoint
// signature rows and its own Evaluator scratch; the signatures and the
// error do not depend on width. This is the only fan-out of either
// learner.
func vectorize(d Decomposer, ps *preparedSpace, width int, strict bool) (*coverVectors, error) {
	space := ps.cands
	if strict {
		for _, c := range space {
			if c.Rule.Head == nil {
				return nil, fmt.Errorf("ilasp: LearnIndependent requires headed candidates, found constraint %q", c.Rule.String())
			}
		}
	}
	examples, bases, err := d.Decompose()
	if err != nil {
		return nil, err
	}
	if ps.invalid != nil {
		return nil, ps.invalid
	}

	v := &coverVectors{n: len(examples)}
	v.reqOff = make([]int, v.n+1)
	v.feasible = make([]bool, v.n)
	v.positive = make([]bool, v.n)

	type exState struct {
		ix    *asp.ModelIndex // nil when no evaluation reads it
		needs []asp.Atom
		excl  []asp.Atom
		held  sigWords // the guard atoms the base model holds
	}
	states := make([]exState, v.n)
	guardWords := (len(ps.guardIDs) + 63) / 64
	held := make(sigWords, v.n*guardWords)
	var key []byte      // a guard key probe
	var args []asp.Term // its blinded arguments
	// stop is the first example that fails the contract; strict builds
	// still evaluate the examples before it, whose errors come first.
	stop, stopErr := v.n, error(nil)
	for ei, e := range examples {
		v.positive[ei] = e.Positive
		v.reqOff[ei+1] = v.reqOff[ei]
		if strict && !e.Positive {
			stop, stopErr = ei, fmt.Errorf("ilasp: LearnIndependent requires positive examples; express %q via exclusions", e.ID)
			break
		}
		var models []*asp.AnswerSet
		if bases[ei] != nil {
			models, err = asp.Solve(bases[ei], asp.SolveOptions{MaxModels: 2})
			if err != nil {
				stop, stopErr = ei, fmt.Errorf("ilasp: base model of example %s: %w", e.ID, err)
				break
			}
		}
		if len(models) > 1 || strict && len(models) == 0 {
			stop, stopErr = ei, fmt.Errorf("ilasp: example %s background has %d answer sets; LearnIndependent needs exactly 1", e.ID, len(models))
			break
		}
		if len(models) == 0 {
			continue // infeasible: no H yields a witness
		}
		base := models[0]
		feasible := true
		for _, a := range e.Exclusions {
			if base.Contains(a) {
				feasible = false // background itself violates
				break
			}
		}
		if !feasible {
			continue
		}
		v.feasible[ei] = true
		var needs []asp.Atom
		for _, a := range e.Inclusions {
			if !base.Contains(a) {
				needs = append(needs, a)
			}
		}
		st := &states[ei]
		*st = exState{needs: needs, excl: e.Exclusions, held: held[ei*guardWords : (ei+1)*guardWords]}
		if len(ps.masks) > 0 {
			base.Each(func(a asp.Atom) {
				for _, mask := range ps.masks[a.Predicate] {
					key, args = appendGuardKey(key[:0], a, mask, args)
					if id, ok := ps.guardIDs[string(key)]; ok {
						st.held.set(id)
					}
				}
			})
		}
		for _, ci := range ps.undecided {
			if ps.guards[ci].subsetOf(st.held) {
				st.ix = asp.NewModelIndex(base) // an evaluation reads it
				break
			}
		}
		v.reqOff[ei+1] = v.reqOff[ei] + len(needs)
	}
	if stopErr != nil && !strict {
		return nil, stopErr
	}
	v.nreq = v.reqOff[stop]

	v.req = make([]sigWords, len(space))
	v.viol = make([]sigWords, len(space))
	for ri := range space {
		v.req[ri] = newSig(v.nreq)
		v.viol[ri] = newSig(v.n)
	}

	workers := max(min(width, len(space)), 1)
	// fails[w] is worker w's earliest failure in (example, candidate)
	// order: after a failure a worker only evaluates earlier examples, so
	// the minimum over workers is the error a serial build meets first.
	type evalFail struct {
		ei  int
		err error
	}
	fails := make([]evalFail, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := asp.NewEvaluator()
			limit := stop
			var evals, decided int64
			defer func() {
				statSigEvals.Add(evals)
				statSigDecided.Add(decided)
			}()
			// derive records that candidate ri derives atom a in example ei.
			derive := func(ri, ei int, a asp.Atom) {
				st := &states[ei]
				for _, x := range st.excl {
					if asp.AtomsEqual(a, x) {
						v.viol[ri].set(ei)
						break
					}
				}
				for ni := range st.needs { // an inclusion may repeat
					if asp.AtomsEqual(a, st.needs[ni]) {
						v.req[ri].set(v.reqOff[ei] + ni)
					}
				}
			}
			for ri := w; ri < len(space); ri += workers {
				head := space[ri].Rule.Head
				guard := ps.guards[ri]
			examples:
				for ei := 0; ei < limit; ei++ {
					st := &states[ei]
					if !v.feasible[ei] || !guard.subsetOf(st.held) {
						continue
					}
					if ps.decided[ri] { // every guard holds: the candidate is its own instance
						decided++
						if head == nil {
							v.viol[ri].set(ei)
						} else {
							derive(ri, ei, *head)
						}
						continue
					}
					for _, r := range d.Instances(ri, ei) {
						evals++
						derived, err := ev.EvalPrepared(st.ix, r)
						if err != nil {
							fails[w] = evalFail{ei, fmt.Errorf("ilasp: evaluating candidate %q: %w", space[ri].Rule.String(), err)}
							limit = ei
							break examples
						}
						if head == nil {
							if len(derived) > 0 { // the body holds: no answer set survives
								v.viol[ri].set(ei)
							}
							continue
						}
						for _, a := range derived {
							derive(ri, ei, a)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	first := evalFail{ei: stop, err: stopErr}
	for _, f := range fails {
		if f.err != nil && f.ei < first.ei {
			first = f
		}
	}
	if first.err != nil {
		return nil, first.err
	}
	return v, nil
}

// collapseClasses groups candidates with identical signature pairs into
// dominance equivalence classes. Candidates are visited in the search's
// cost-stable order, so the first member of each class — its
// representative — is the cheapest (ties by candidate order, matching
// the branch the search would pick first anyway). The result marks every
// non-representative with positive cost: interchangeable with its
// representative in any hypothesis at no lower cost, so dropping it
// cannot change the first optimal solution the search finds. Zero-cost
// duplicates are kept — under iterative deepening on exact cost they
// can pad a hypothesis to hit a target cost.
func collapseClasses(cands []Candidate, order []int, v *coverVectors) (skip []bool) {
	skip = make([]bool, len(cands))
	seen := make(map[string]struct{}, len(order))
	var key []byte
	collapsed := 0
	for _, ci := range order {
		key = key[:0]
		for _, w := range v.req[ci] {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		key = append(key, '|')
		for _, w := range v.viol[ci] {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
		} else if cands[ci].Cost > 0 {
			skip[ci] = true
			collapsed++
		}
	}
	statSigCollapsed.Add(int64(collapsed))
	return skip
}
