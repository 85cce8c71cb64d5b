package ilasp

import (
	"fmt"
	"math/bits"
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
// included) or anywhere in the background or the example contexts. The
// space's part is read off the prepared space.
func checkIndependence(t *Task, ps *preparedSpace) error {
	if ps.recursive != nil {
		return ps.recursive
	}
	if err := ps.checkProgram(t.Background, "background", ""); err != nil {
		return err
	}
	for i := range t.Examples {
		if err := ps.checkProgram(t.Examples[i].Context, "context of ", t.Examples[i].ID); err != nil {
			return err
		}
	}
	return nil
}

// checkProgram returns the error for the first rule of p that reads or
// defines a candidate head predicate, located as where+id, or nil.
func (ps *preparedSpace) checkProgram(p *asp.Program, where, id string) error {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		for j := range r.Body {
			if l := &r.Body[j]; !l.IsCmp {
				if _, clash := ps.heads[l.Atom.Predicate]; clash {
					return fmt.Errorf("ilasp: %s%s rule %q references candidate head predicate %s; use Learn", where, id, r.String(), l.Atom.Predicate)
				}
			}
		}
		if r.Head != nil {
			if _, clash := ps.heads[r.Head.Predicate]; clash {
				return fmt.Errorf("ilasp: %s%s rule %q defines candidate head predicate %s; use Learn", where, id, r.String(), r.Head.Predicate)
			}
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

// coverNoisy maximises weighted coverage minus cost: it returns a rule
// set of least objective — cost plus the weights of the soft examples
// left uncovered — among those covering every hard (zero-weight)
// example, and its covered count. The search branches on the first open
// example (pending: feasible, some need unmet, violated by no chosen
// rule; and not abandoned): either a provider of its first unmet need is
// added, in cost order, or the example is abandoned, paying its weight.
// This complete branch-and-bound branches on the providers of one need
// rather than the whole pool. The incumbent moves only on a strict
// improvement, so a tie goes to the first optimum in DFS order, not to
// higher coverage.
//
// Two prunings drop only leaves that duplicate, or cannot beat, a leaf
// met earlier in the same DFS order, so neither changes the answer:
//
//   - Canonical branching. A provider whose branch is taken is forbidden
//     in its later siblings' subtrees: any solution holding it was scored
//     in its own branch. Before the abandon branch, every provider of the
//     need that does not violate the example is forbidden too: a
//     solution holding one was scored with the example not abandoned, at
//     no greater objective. A violating provider stays allowed, as its
//     branch was never taken.
//   - Remaining-slot bound. With k = maxRules − depth rules left to add,
//     an open example ends covered only if an added rule fires on it
//     without violating it. So the open weight left uncovered is at least
//     the open weight minus the k largest gains (the open weight a rule
//     fires on without violating) among the rules still allowed. The
//     bound is computed only when cost, lost and open weight together
//     reach the incumbent, and it scans the rules in order of their gain
//     at the root, an upper bound on their gain at any node, so the scan
//     ends once no later rule can enter the top k.
//
// Example status lives in per-depth bitsets (pending, covered; broken is
// neither) with per-depth aggregates: a push copies the parent level and
// revisits only the pushed rule's affected examples (inverted fire/viol
// lists). The search's work — nodes expanded, example statuses visited
// and candidates the bound scans — is counted in a local and flushed once
// into ilasp.independent.noisy_work, a hardware-independent measure.
func coverNoisy(v *coverVectors, weights []int, space []Candidate, pool []int, maxRules, maxCost int) ([]int, int, error) {
	if maxCost <= 0 {
		maxCost = 1 << 30
	}
	n := v.n
	// soft[ei] is what leaving example ei uncovered costs: 0 for a hard
	// example, which must be covered instead.
	soft := make([]int, n)
	for ei, w := range weights {
		soft[ei] = max(w, 0)
	}

	// providers[ei][ni] = pool rules deriving need ni of example ei, in
	// cost order. fireEx/violEx invert the candidate signatures into
	// affected-example lists for the incremental status updates, and
	// gain[ri] marks the examples ri fires on without violating them.
	providers := make([][][]int, n)
	for ei := range providers {
		providers[ei] = make([][]int, v.reqOff[ei+1]-v.reqOff[ei])
	}
	fireEx := make([][]int32, len(space))
	violEx := make([][]int32, len(space))
	gain := make([]sigWords, len(space))
	for _, ri := range pool {
		gain[ri] = newSig(n)
		for ei := 0; ei < n; ei++ {
			fires := false
			for ni := range providers[ei] {
				if v.req[ri].get(v.reqOff[ei] + ni) {
					providers[ei][ni] = append(providers[ei][ni], ri)
					fires = true
				}
			}
			violates := v.viol[ri].get(ei)
			if fires {
				fireEx[ri] = append(fireEx[ri], int32(ei))
				if !violates {
					gain[ri].set(ei)
				}
			}
			if violates {
				violEx[ri] = append(violEx[ri], int32(ei))
			}
		}
	}

	// uReq[d] holds the union fire signature of the first d chosen rules
	// (needed for first-unmet-need lookup and covered re-checks); a push
	// at depth d writes level d+1 only, so parent levels survive the
	// recursion. pend[d] and cov[d] hold the pending and covered examples
	// at depth d, with lostD/coveredD/pendW/hardBrokenD the matching
	// aggregates (soft weight lost to broken examples, covered count,
	// soft weight pending, any hard example broken) so a node never
	// rescans the whole example set.
	uReq := make([]sigWords, maxRules+1)
	pend := make([]sigWords, maxRules+1)
	cov := make([]sigWords, maxRules+1)
	lostD := make([]int, maxRules+1)
	coveredD := make([]int, maxRules+1)
	pendW := make([]int, maxRules+1)
	hardBrokenD := make([]bool, maxRules+1)
	for d := 0; d <= maxRules; d++ {
		uReq[d] = newSig(v.nreq)
		pend[d] = newSig(n)
		cov[d] = newSig(n)
	}
	for ei := 0; ei < n; ei++ {
		switch {
		case !v.feasible[ei]:
			if weights[ei] <= 0 {
				hardBrokenD[0] = true
			} else {
				lostD[0] += weights[ei]
			}
		case v.reqOff[ei] == v.reqOff[ei+1]: // no need: covered as it is
			cov[0].set(ei)
			coveredD[0]++
		default:
			pend[0].set(ei)
			pendW[0] += soft[ei]
		}
	}

	// byGain holds the pool rules with a gain on the examples pending at
	// the root, largest first. Open examples are always a subset of
	// those, so a rule's gain at any node is at most its rootGain.
	rootGain := make([]int, len(space))
	var byGain []int
	for _, ri := range pool {
		if rootGain[ri] = weightIn(soft, gain[ri], pend[0]); rootGain[ri] > 0 {
			byGain = append(byGain, ri)
		}
	}
	sort.SliceStable(byGain, func(a, b int) bool { return rootGain[byGain[a]] > rootGain[byGain[b]] })

	var (
		chosen      []int
		cost        int
		abandoned   = newSig(n)
		open        = newSig(n) // pending and not abandoned, at the current node
		forbidden   = make([]bool, len(space))
		forbids     []int                      // forbidden rules in the order forbidden, undone per node
		topGains    = make([]int, 0, maxRules) // slotGain's top gains, largest first
		bestObj     = 1 << 30
		best        []int
		bestCovered int
		found       bool
		work        int64
	)

	// slotGain sums the k largest gains on the open examples among the
	// allowed rules. It stops once the sum reaches need, as the bound can
	// then no longer prune, or once the next rule's rootGain cannot enter
	// the top k.
	slotGain := func(k, need int) int {
		if k == 0 {
			return 0
		}
		top, sum := topGains[:0], 0
		for _, ri := range byGain {
			if len(top) == k && top[k-1] >= rootGain[ri] {
				break // no later rule can enter the top k
			}
			if forbidden[ri] {
				continue
			}
			work++
			g := weightIn(soft, gain[ri], open)
			switch {
			case g == 0:
				continue
			case len(top) < k:
				top = append(top, g)
			case g > top[k-1]:
				sum -= top[k-1]
				top[k-1] = g
			default:
				continue
			}
			sum += g
			for i := len(top) - 1; i > 0 && top[i] > top[i-1]; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			if sum >= need {
				break
			}
		}
		return sum
	}

	var dfs func()
	dfs = func() {
		work++
		d := len(chosen)
		if hardBrokenD[d] {
			return // hard example broken: infeasible branch
		}
		// Lower bound: cost plus weights of examples already lost.
		// Abandoned examples pay their weight whatever their status;
		// broken ones are already in lostD, the rest adjust here.
		lost, covered, openW := lostD[d], coveredD[d], pendW[d]
		for w, a := range abandoned {
			for b := a & pend[d][w]; b != 0; b &= b - 1 {
				ei := w<<6 | bits.TrailingZeros64(b)
				lost += soft[ei]
				openW -= soft[ei]
				work++
			}
			for b := a & cov[d][w]; b != 0; b &= b - 1 {
				lost += soft[w<<6|bits.TrailingZeros64(b)]
				covered--
				work++
			}
		}
		if cost+lost >= bestObj {
			return
		}
		first := -1
		for w := range open {
			open[w] = pend[d][w] &^ abandoned[w]
			if first < 0 && open[w] != 0 {
				first = w<<6 | bits.TrailingZeros64(open[w])
			}
		}
		if first == -1 {
			bestObj, bestCovered, found = cost+lost, covered, true
			best = append(best[:0], chosen...)
			return
		}
		if cost+lost+openW >= bestObj && cost+lost+max(0, openW-slotGain(maxRules-d, openW)) >= bestObj {
			return
		}
		// The open example's first unmet need.
		req := uReq[d]
		lo := v.reqOff[first]
		need := 0
		for req.get(lo + need) {
			need++
		}
		provs := providers[first][need]
		mark := len(forbids)
		// Option 1: add a provider of the first unmet need.
		if d < maxRules {
			for _, ri := range provs {
				if forbidden[ri] || v.viol[ri].get(first) {
					continue
				}
				c := space[ri].Cost
				if cost+c > maxCost || cost+c+lost >= bestObj {
					break // providers come in cost order: the rest cost no less
				}
				// Chosen in this branch; in the later siblings' subtrees a
				// solution holding it was already scored in this one.
				forbidden[ri] = true
				forbids = append(forbids, ri)
				next := uReq[d+1]
				copy(next, req)
				v.req[ri].orInto(next)
				np, nc := pend[d+1], cov[d+1]
				copy(np, pend[d])
				copy(nc, cov[d])
				lost2, cov2, pw2, hard2 := lostD[d], coveredD[d], pendW[d], false
				work += int64(len(violEx[ri]) + len(fireEx[ri]))
				for _, e := range violEx[ri] {
					ei := int(e)
					switch {
					case np.get(ei):
						np.unset(ei)
						pw2 -= soft[ei]
					case nc.get(ei): // violation trumps coverage
						nc.unset(ei)
						cov2--
					default:
						continue // already broken
					}
					if weights[ei] <= 0 {
						hard2 = true
					} else {
						lost2 += weights[ei]
					}
				}
				for _, e := range fireEx[ri] {
					ei := int(e)
					if np.get(ei) && next.allSet(v.reqOff[ei], v.reqOff[ei+1]) {
						np.unset(ei)
						nc.set(ei)
						cov2++
						pw2 -= soft[ei]
					}
				}
				lostD[d+1], coveredD[d+1], pendW[d+1], hardBrokenD[d+1] = lost2, cov2, pw2, hard2
				chosen = append(chosen, ri)
				cost += c
				dfs()
				chosen = chosen[:d]
				cost -= c
			}
		}
		// Option 2: abandon the open example (soft examples only), with
		// every provider of its need that does not violate it forbidden.
		if weights[first] > 0 {
			for _, ri := range provs {
				if !forbidden[ri] && !v.viol[ri].get(first) {
					forbidden[ri] = true
					forbids = append(forbids, ri)
				}
			}
			abandoned.set(first)
			dfs()
			abandoned.unset(first)
		}
		for _, ri := range forbids[mark:] {
			forbidden[ri] = false
		}
		forbids = forbids[:mark]
	}
	dfs()
	statIndependentNoisyWork.Add(work)
	if !found {
		return nil, 0, ErrNoSolution
	}
	return best, bestCovered, nil
}

// weightIn sums the weights of the examples set in both s and mask.
func weightIn(weights []int, s, mask sigWords) int {
	sum := 0
	for w, x := range s {
		for b := x & mask[w]; b != 0; b &= b - 1 {
			sum += weights[w<<6|bits.TrailingZeros64(b)]
		}
	}
	return sum
}
