package ilasp

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

// LearnIndependent is the scalable fast path of the learner for
// *non-recursive* hypothesis spaces: candidate rules whose bodies only
// reference predicates derived by the background and example contexts,
// never other candidates' heads. Under that independence condition a
// candidate's contribution to an answer set is a one-step evaluation
// against the background model, coverage becomes a per-rule vector, and
// optimal search reduces to a weighted set-cover solved by branch and
// bound — no ASP solving inside the search loop.
//
// This realizes the ILASP-style relevance optimisations the paper calls
// for under "Performance Optimization" (Section III.B): the exhaustive
// Learn search and LearnIndependent return equally optimal hypotheses on
// independent tasks, but the latter scales to the dataset sizes of the
// access-control and CAV experiments.
//
// Restrictions (checked, returning an error when unmet):
//   - every example is positive (express negatives as exclusions);
//   - every candidate has a head, and no candidate's head predicate
//     occurs in any candidate body or anywhere in the background or the
//     example contexts;
//   - background ∪ context has exactly one answer set per example.
func (t *Task) LearnIndependent(opts LearnOptions) (*Result, error) {
	t0 := time.Now()
	sp := obs.StartSpan("ilasp.learn_independent")
	defer sp.End()
	ps, err := t.space()
	if err != nil {
		return nil, err
	}
	v, err := vectorize(&taskOracle{task: t, ps: ps}, ps, runtime.GOMAXPROCS(0), true)
	if err != nil {
		return nil, err
	}
	space := ps.cands
	maxRules := opts.MaxRules
	if maxRules <= 0 {
		maxRules = 3
	}

	// Candidate pool: rules that help somewhere. Rules deriving no
	// needed atom can only add cost or violations, so optimal solutions
	// never include them. Positive-cost candidates whose signatures
	// duplicate a cheaper (or equal-cost, earlier) pool member are
	// collapsed away: in the decomposed set-cover they are
	// interchangeable with their representative, and the
	// representative's branch is explored first.
	var pool []int
	for ri := range space {
		if !v.req[ri].empty() {
			pool = append(pool, ri)
		}
	}
	sort.SliceStable(pool, func(a, b int) bool { return space[pool[a]].Cost < space[pool[b]].Cost })
	skip := collapseClasses(space, pool, v)
	dedup := pool[:0]
	for _, ri := range pool {
		if !skip[ri] {
			dedup = append(dedup, ri)
		}
	}
	pool = dedup

	var sol []int
	var covered int
	if opts.Noise {
		sol, covered, err = coverNoisy(v, ExampleWeights(t.Examples), space, pool, maxRules, opts.MaxCost)
	} else {
		sol, covered, err = coverHard(v, space, pool, maxRules, opts.MaxCost)
	}
	if err != nil {
		return nil, err
	}
	// Checks counts one-step evaluations: every candidate against every
	// feasible example's base model.
	checks := 0
	for _, f := range v.feasible {
		if f {
			checks += len(space)
		}
	}
	sort.Ints(sol)
	rules := make([]asp.Rule, len(sol))
	cost := 0
	for i, ri := range sol {
		rules[i] = ownRule(space[ri].Rule)
		cost += space[ri].Cost
	}
	statIndependentLearns.Inc()
	statIndependentChecks.Add(int64(checks))
	statIndependentDur.ObserveSince(t0)
	if obs.TracingEnabled() {
		sp.SetAttr("candidates", strconv.Itoa(len(space)))
		sp.SetAttr("examples", strconv.Itoa(len(t.Examples)))
		sp.SetAttr("chosen", strconv.Itoa(len(sol)))
	}
	return &Result{
		Hypothesis: rules,
		Cost:       cost,
		Covered:    covered,
		Total:      len(t.Examples),
		Checks:     checks,
	}, nil
}

// checkIndependence verifies the non-recursiveness condition: no
// candidate head predicate occurs in a candidate body (constraints
// included) or anywhere in the background or the example contexts.
func checkIndependence(t *Task, space []Candidate) error {
	headPreds := make(map[string]struct{})
	for _, c := range space {
		if c.Rule.Head != nil {
			headPreds[c.Rule.Head.Predicate] = struct{}{}
		}
	}
	checkProgram := func(p *asp.Program, where string) error {
		if p == nil {
			return nil
		}
		for _, r := range p.Rules {
			for _, l := range r.Body {
				if l.IsCmp {
					continue
				}
				if _, clash := headPreds[l.Atom.Predicate]; clash {
					return fmt.Errorf("ilasp: %s rule %q references candidate head predicate %s; use Learn", where, r.String(), l.Atom.Predicate)
				}
			}
			if r.Head != nil {
				if _, clash := headPreds[r.Head.Predicate]; clash {
					return fmt.Errorf("ilasp: %s rule %q defines candidate head predicate %s; use Learn", where, r.String(), r.Head.Predicate)
				}
			}
		}
		return nil
	}
	for _, c := range space {
		for _, l := range c.Rule.Body {
			if l.IsCmp {
				continue
			}
			if _, clash := headPreds[l.Atom.Predicate]; clash {
				return fmt.Errorf("ilasp: candidate %q is recursive over %s; use Learn", c.Rule.String(), l.Atom.Predicate)
			}
		}
	}
	if err := checkProgram(t.Background, "background"); err != nil {
		return err
	}
	for _, e := range t.Examples {
		if err := checkProgram(e.Context, "context of "+e.ID); err != nil {
			return err
		}
	}
	return nil
}

// coverHard finds the minimal-cost subset of pool covering every
// example: all needs derived, no violations.
func coverHard(v *coverVectors, space []Candidate, pool []int, maxRules, maxCost int) ([]int, int, error) {
	// Hard mode: a rule violating any example is unusable.
	var usable []int
	for _, ri := range pool {
		if v.viol[ri].empty() {
			usable = append(usable, ri)
		}
	}
	for _, f := range v.feasible {
		if !f {
			return nil, 0, ErrNoSolution
		}
	}

	// options[q] = usable rules satisfying requirement bit q.
	options := make([][]int, v.nreq)
	for qi := range options {
		for _, ri := range usable {
			if v.req[ri].get(qi) {
				options[qi] = append(options[qi], ri)
			}
		}
		if len(options[qi]) == 0 {
			return nil, 0, ErrNoSolution
		}
	}

	bestCost := maxCost
	if bestCost <= 0 {
		bestCost = 1 << 30
	}
	bestCost++ // exclusive bound
	var best []int
	chosen := make(map[int]bool)
	satisfied := make([]bool, v.nreq)
	flipped := make([]int, 0, v.nreq)

	var dfs func(cost int)
	dfs = func(cost int) {
		if cost >= bestCost {
			return
		}
		// Find the unsatisfied requirement with fewest options.
		pick := -1
		for qi := range options {
			if satisfied[qi] {
				continue
			}
			if pick == -1 || len(options[qi]) < len(options[pick]) {
				pick = qi
			}
		}
		if pick == -1 {
			bestCost = cost
			best = make([]int, 0, len(chosen))
			for ri := range chosen {
				best = append(best, ri)
			}
			return
		}
		if len(chosen) == maxRules {
			return
		}
		for _, ri := range options[pick] {
			if chosen[ri] {
				continue // already in: requirement would've been satisfied
			}
			chosen[ri] = true
			mark := len(flipped)
			for qi := range options {
				if !satisfied[qi] && v.req[ri].get(qi) {
					satisfied[qi] = true
					flipped = append(flipped, qi)
				}
			}
			dfs(cost + space[ri].Cost)
			for _, qi := range flipped[mark:] {
				satisfied[qi] = false
			}
			flipped = flipped[:mark]
			delete(chosen, ri)
		}
	}
	dfs(0)
	if best == nil {
		return nil, 0, ErrNoSolution
	}
	return best, v.n, nil
}

// Example status in the coverNoisy search, tracked per depth.
const (
	cnPending byte = iota // some requirement still unmet
	cnCovered             // all requirements met, no violation
	cnBroken              // infeasible or violated by a chosen rule
)

// coverNoisy maximises weighted coverage minus cost. Hard (zero-weight)
// examples must be covered. The search branches on the first unmet
// requirement: either one of the rules providing it is added, or the
// whole example is abandoned (paying its weight) — a complete
// branch-and-bound whose branching factor is the number of providers per
// requirement rather than the pool size. Example status is kept in
// per-depth byte arrays: a push copies the parent level and revisits
// only the pushed rule's affected examples (inverted fire/viol lists),
// so the per-node scan reads one byte per example instead of running a
// word-range allSet over its requirement bits.
//
// The search's work — nodes expanded plus example statuses visited — is
// counted in a local and flushed once into ilasp.independent.noisy_work,
// a hardware-independent measure a per-node rescan would inflate.
func coverNoisy(v *coverVectors, weights []int, space []Candidate, pool []int, maxRules, maxCost int) ([]int, int, error) {
	if maxCost <= 0 {
		maxCost = 1 << 30
	}
	n := v.n

	// providers[ei][ni] = pool rules deriving need ni of example ei, in
	// cost order. fireEx/violEx invert the candidate signatures into
	// affected-example lists for the incremental status updates.
	providers := make([][][]int, n)
	for ei := range providers {
		providers[ei] = make([][]int, v.reqOff[ei+1]-v.reqOff[ei])
	}
	fireEx := make([][]int32, len(space))
	violEx := make([][]int32, len(space))
	for _, ri := range pool {
		for ei := 0; ei < n; ei++ {
			fires := false
			for ni := range providers[ei] {
				if v.req[ri].get(v.reqOff[ei] + ni) {
					providers[ei][ni] = append(providers[ei][ni], ri)
					fires = true
				}
			}
			if fires {
				fireEx[ri] = append(fireEx[ri], int32(ei))
			}
			if v.viol[ri].get(ei) {
				violEx[ri] = append(violEx[ri], int32(ei))
			}
		}
	}

	type state struct {
		chosen    []int
		cost      int
		abandoned []bool
		abandList []int // currently abandoned examples, in path order
	}
	bestObj := 1 << 30
	var best []int
	bestCovered := -1
	found := false
	var work int64

	// uReq[d] holds the union fire signature of the first d chosen rules
	// (needed for first-unmet-need lookup and covered re-checks); a push
	// at depth d writes level d+1 only, so parent levels survive the
	// recursion. status[d] holds the per-example status bytes at depth d,
	// with lostD/coveredD/hardBrokenD the matching aggregates (soft
	// weight lost to broken examples, covered count, any hard example
	// broken) so a node never rescans the whole example set.
	uReq := make([]sigWords, maxRules+1)
	status := make([][]byte, maxRules+1)
	lostD := make([]int, maxRules+1)
	coveredD := make([]int, maxRules+1)
	hardBrokenD := make([]bool, maxRules+1)
	for d := 0; d <= maxRules; d++ {
		uReq[d] = newSig(v.nreq)
		status[d] = make([]byte, n)
	}
	for ei := 0; ei < n; ei++ {
		switch {
		case !v.feasible[ei]:
			status[0][ei] = cnBroken
			if weights[ei] <= 0 {
				hardBrokenD[0] = true
			} else {
				lostD[0] += weights[ei]
			}
		case uReq[0].allSet(v.reqOff[ei], v.reqOff[ei+1]):
			status[0][ei] = cnCovered
			coveredD[0]++
		}
	}

	// dfs evaluates the node for the current chosen set. from is a lower
	// bound on the first pending example: statuses only move
	// pending→covered/broken and the abandoned set only grows down a
	// path, so the first pending index is non-decreasing with depth.
	var dfs func(st *state, from int)
	dfs = func(st *state, from int) {
		work++
		d := len(st.chosen)
		stat := status[d]
		if hardBrokenD[d] {
			return // hard example broken: infeasible branch
		}
		// Lower bound: cost plus weights of examples already lost.
		// Abandoned examples pay their weight whatever their status;
		// broken ones are already in lostD, the rest adjust here.
		lost := lostD[d]
		covered := coveredD[d]
		work += int64(len(st.abandList))
		for _, ei := range st.abandList {
			switch stat[ei] {
			case cnPending:
				lost += weights[ei]
			case cnCovered:
				lost += weights[ei]
				covered--
			}
		}
		if st.cost+lost >= bestObj {
			return
		}
		firstPending := -1
		for ei := from; ei < n; ei++ {
			work++
			if stat[ei] == cnPending && !st.abandoned[ei] {
				firstPending = ei
				break
			}
		}
		if firstPending == -1 {
			obj := st.cost + lost
			if obj < bestObj || (obj == bestObj && covered > bestCovered) {
				bestObj = obj
				best = append([]int(nil), st.chosen...)
				bestCovered = covered
				found = true
			}
			return
		}
		// The pending example's first unmet need.
		req := uReq[d]
		firstNeed := -1
		for ni := range providers[firstPending] {
			if !req.get(v.reqOff[firstPending] + ni) {
				firstNeed = ni
				break
			}
		}
		// Option 1: add a provider of the first unmet requirement.
		if len(st.chosen) < maxRules {
			for _, ri := range providers[firstPending][firstNeed] {
				already := false
				for _, c := range st.chosen {
					if c == ri {
						already = true
						break
					}
				}
				if already || v.viol[ri].get(firstPending) {
					continue
				}
				c := space[ri].Cost
				if st.cost+c > maxCost || st.cost+c+lost >= bestObj {
					continue
				}
				copy(uReq[d+1], req)
				v.req[ri].orInto(uReq[d+1])
				child := status[d+1]
				copy(child, stat)
				lost2, cov2, hard2 := lostD[d], coveredD[d], false
				work += int64(len(violEx[ri]) + len(fireEx[ri]))
				for _, ei := range violEx[ri] {
					if child[ei] == cnBroken {
						continue
					}
					if child[ei] == cnCovered {
						cov2--
					}
					child[ei] = cnBroken // violation trumps coverage
					if weights[ei] <= 0 {
						hard2 = true
					} else {
						lost2 += weights[ei]
					}
				}
				childReq := uReq[d+1]
				for _, ei := range fireEx[ri] {
					if child[ei] == cnPending && childReq.allSet(v.reqOff[ei], v.reqOff[ei+1]) {
						child[ei] = cnCovered
						cov2++
					}
				}
				lostD[d+1], coveredD[d+1], hardBrokenD[d+1] = lost2, cov2, hard2
				st.chosen = append(st.chosen, ri)
				st.cost += c
				dfs(st, firstPending)
				st.chosen = st.chosen[:len(st.chosen)-1]
				st.cost -= c
			}
		}
		// Option 2: abandon the pending example (soft examples only).
		if weights[firstPending] > 0 {
			st.abandoned[firstPending] = true
			st.abandList = append(st.abandList, firstPending)
			dfs(st, firstPending+1)
			st.abandList = st.abandList[:len(st.abandList)-1]
			st.abandoned[firstPending] = false
		}
	}
	dfs(&state{abandoned: make([]bool, n)}, 0)
	statIndependentNoisyWork.Add(work)
	if !found {
		return nil, 0, ErrNoSolution
	}
	return best, bestCovered, nil
}
