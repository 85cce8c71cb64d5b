package ilasp

import (
	"runtime"
	"sort"
	"strconv"
	"time"

	"agenp/internal/obs"
)

// Oracle abstracts a learning problem for the optimal subset search: a
// candidate space and a per-example coverage check. Package ilasp's own
// tasks and package asglearn's answer-set-grammar tasks (Definition 3 of
// the paper) both reduce to this interface — realizing the paper's
// "transformation into a task that can be solved by the ILASP system":
// both searches are the same optimal subset search, differing only in
// the coverage oracle.
//
// The search calls Covers on the caller's goroutine, in example order,
// and asks each (hypothesis, example) verdict at most once, so oracles
// need no verdict memo.
type Oracle interface {
	// Candidates returns the hypothesis space.
	Candidates() []Candidate
	// Covers reports whether the hypothesis (candidate indices) covers
	// example i.
	Covers(chosen []int, i int) (bool, error)
}

// Solution is the outcome of a Search.
type Solution struct {
	// Chosen lists indices into the oracle's candidate space.
	Chosen []int
	// Covered counts covered examples.
	Covered int
	// Checks counts coverage queries the search issued. The count is of
	// logical queries: a signature-served search answers them without
	// the oracle. The checker counts once and flushes the same total to
	// the obs counter "ilasp.search.checks".
	Checks int
}

// Search finds an optimal hypothesis for an oracle over len(weights)
// examples.
//
// Hard mode (default): minimal total cost covering every example, found
// by iterative deepening on exact cost (ILASP-style optimality).
// Noise mode (opts.Noise): minimises cost + sum of weights of uncovered
// soft examples; zero-weight (hard) examples must be covered;
// branch-and-bound prunes subtrees whose cost already exceeds the best
// objective.
func Search(o Oracle, weights []int, opts LearnOptions) (*Solution, error) {
	t0 := time.Now()
	sp := obs.StartSpan("ilasp.search")
	defer sp.End()
	maxRules := opts.MaxRules
	if maxRules <= 0 {
		maxRules = 3
	}
	cands := o.Candidates()
	// Candidates must be in non-decreasing cost order for pruning.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].Cost < cands[order[b]].Cost })

	maxCost := opts.MaxCost
	if maxCost <= 0 {
		// Default: the maxRules most expensive candidates.
		costs := make([]int, len(cands))
		for i, c := range cands {
			costs[i] = c.Cost
		}
		sort.Sort(sort.Reverse(sort.IntSlice(costs)))
		for i := 0; i < len(costs) && i < maxRules; i++ {
			maxCost += costs[i]
		}
	}

	c := &checker{o: o, n: len(weights), maxChecks: opts.MaxChecks}
	defer c.close()

	// Signature fast path: when the oracle decomposes into per-candidate
	// coverage bitsets, serve every check from word-wide OR/AND, collapse
	// identical-signature candidates into dominance classes, and let the
	// noisy search skip subsumed branches. Verdict replay stays in
	// example order, so the solution and coverage equal the re-solve
	// path's; the pruning can only lower the check count. A Decomposer
	// that declines is counted, and the search re-solves per hypothesis.
	var skip []bool
	if d, ok := o.(Decomposer); ok {
		if vec, err := vectorize(d, preparedOf(o, cands), runtime.GOMAXPROCS(0), false); err == nil && vec.n == len(weights) {
			c.vec = vec
			c.uLevels = make([]unionSig, maxRules+1)
			skip = collapseClasses(cands, order, vec)
			statSigSearches.Inc()
		} else {
			statSigFallbacks.Inc()
		}
	}

	var sol *Solution
	var err error
	if opts.Noise {
		sol, err = searchNoisy(c, cands, weights, order, maxRules, maxCost, skip)
	} else {
		sol, err = searchHard(c, cands, order, maxRules, maxCost, skip)
	}
	statSearches.Inc()
	statSearchDur.ObserveSince(t0)
	if err != nil {
		return nil, err
	}
	sol.Checks = c.checks
	if obs.TracingEnabled() {
		sp.SetAttr("candidates", strconv.Itoa(len(cands)))
		sp.SetAttr("hypotheses", strconv.FormatInt(c.hyps, 10))
		sp.SetAttr("checks", strconv.Itoa(c.checks))
		sp.SetAttr("chosen", strconv.Itoa(len(sol.Chosen)))
	}
	return sol, nil
}

// preparedOf returns the space a Decomposer oracle's signatures are
// built over. A taskOracle holds its own, prepared with guards. Any other
// oracle's candidates are prepared here, per search, without guards: its
// instances may depend on the example (asgOracle localizes them per parse
// tree), so a candidate's ground body atoms need not guard them.
func preparedOf(o Oracle, cands []Candidate) *preparedSpace {
	if to, ok := o.(*taskOracle); ok {
		return to.ps
	}
	return prepare(cands, false)
}

// checker issues coverage checks for the search, owning the check count
// and the MaxChecks budget.
type checker struct {
	o         Oracle
	n         int // examples
	maxChecks int
	checks    int

	// Per-search telemetry, flushed to the obs registry by close():
	// hyps counts hypotheses whose coverage was evaluated, pruned counts
	// subtrees cut by the cost bound.
	hyps   int64
	pruned int64

	// vec, when non-nil, serves checks from coverage signatures instead
	// of the oracle. uLevels[d] is the reusable union scratch for
	// hypotheses of size d; indexing by size keeps a parent dfs node's
	// union valid while its children recompute theirs.
	vec     *coverVectors
	uLevels []unionSig
}

func (c *checker) close() {
	statChecks.Add(int64(c.checks))
	statHyps.Add(c.hyps)
	statPruned.Add(c.pruned)
}

// replay evaluates the hypothesis on every example in order. Verdicts
// come from the signature union on the signature path, else from the
// oracle; either way the check count, MaxChecks budget, first error,
// hard-example abort, and penalty cutoff are one code path. weights nil
// makes every example hard. ok reports that the replay ran to the end:
// false when a hard example is uncovered or cost+penalty reached bound.
func (c *checker) replay(chosen, weights []int, cost, bound int) (covered, penalty int, ok bool, err error) {
	c.hyps++
	var u *unionSig
	if c.vec != nil {
		// The union stays in uLevels[len(chosen)] for the noisy search's
		// subsumption checks.
		u = &c.uLevels[len(chosen)]
		c.vec.unionInto(u, chosen)
	}
	for i := 0; i < c.n; i++ {
		c.checks++
		if c.maxChecks > 0 && c.checks > c.maxChecks {
			return covered, penalty, false, ErrCheckBudget
		}
		var yes bool
		if u != nil {
			yes = c.vec.covered(u, i)
		} else {
			t0 := time.Now()
			yes, err = c.o.Covers(chosen, i)
			statCheckDur.ObserveSince(t0)
			if err != nil {
				return covered, penalty, false, err
			}
		}
		if yes {
			covered++
			continue
		}
		if weights == nil || weights[i] <= 0 {
			return covered, penalty, false, nil // hard example uncovered
		}
		penalty += weights[i]
		if cost+penalty >= bound {
			return covered, penalty, false, nil
		}
	}
	return covered, penalty, true, nil
}

func searchHard(c *checker, cands []Candidate, order []int, maxRules, maxCost int, skip []bool) (*Solution, error) {
	for target := 0; target <= maxCost; target++ {
		var found *Solution
		var dfs func(pos, remaining, rules int, chosen []int) error
		dfs = func(pos, remaining, rules int, chosen []int) error {
			if found != nil {
				return nil
			}
			if remaining == 0 {
				covered, _, ok, err := c.replay(chosen, nil, 0, 0)
				if err != nil {
					return err
				}
				if ok {
					found = &Solution{Chosen: append([]int(nil), chosen...), Covered: covered}
				}
				// Only zero-cost candidates, first in cost order, extend a
				// hypothesis without leaving the target.
				if ok || pos == len(order) || cands[order[pos]].Cost > 0 {
					return nil
				}
			}
			if rules == 0 {
				return nil
			}
			for i := pos; i < len(order); i++ {
				ci := order[i]
				if skip != nil && skip[ci] {
					c.pruned++
					continue // dominated duplicate of a cheaper class representative
				}
				cost := cands[ci].Cost
				if cost > remaining {
					c.pruned += int64(len(order) - i)
					break // sorted: everything after costs at least as much
				}
				if err := dfs(i+1, remaining-cost, rules-1, append(chosen, ci)); err != nil {
					return err
				}
				if found != nil {
					return nil
				}
			}
			return nil
		}
		if err := dfs(0, target, maxRules, nil); err != nil {
			return nil, err
		}
		if found != nil {
			return found, nil
		}
	}
	return nil, ErrNoSolution
}

func searchNoisy(c *checker, cands []Candidate, weights []int, order []int, maxRules, maxCost int, skip []bool) (*Solution, error) {
	var (
		best    *Solution
		bestObj = int(^uint(0) >> 1) // max int
	)
	evaluate := func(chosen []int, cost int) error {
		if cost >= bestObj {
			c.pruned++
			return nil
		}
		covered, penalty, ok, err := c.replay(chosen, weights, cost, bestObj)
		if !ok {
			return err
		}
		// A full replay implies cost+penalty < bestObj.
		bestObj = cost + penalty
		best = &Solution{Chosen: append([]int(nil), chosen...), Covered: covered}
		return nil
	}

	var dfs func(pos, cost, rules int, chosen []int) error
	dfs = func(pos, cost, rules int, chosen []int) error {
		if err := evaluate(chosen, cost); err != nil {
			return err
		}
		if rules == 0 {
			return nil
		}
		for i := pos; i < len(order); i++ {
			ci := order[i]
			if skip != nil && skip[ci] {
				c.pruned++
				continue // dominated duplicate of a cheaper class representative
			}
			cc := cands[ci].Cost
			if cost+cc > maxCost || cost+cc >= bestObj {
				c.pruned += int64(len(order) - i)
				break
			}
			// Subsumption skip: when ci's signature adds no requirement
			// and no violation beyond the already-chosen union, every
			// extension containing ci has an identical-coverage,
			// strictly-cheaper counterpart without it — and that
			// counterpart is explored regardless, so the first optimal
			// solution is unchanged. The union in uLevels[len(chosen)] is
			// valid here: evaluate computed it before any branching, and
			// reaching this loop implies evaluate passed its entry prune
			// (cost < bestObj, else cost+cc >= bestObj broke above).
			if c.vec != nil && cc > 0 && c.vec.subsumed(ci, &c.uLevels[len(chosen)]) {
				c.pruned++
				statSigSubsumed.Inc()
				continue
			}
			if err := dfs(i+1, cost+cc, rules-1, append(chosen, ci)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0, 0, maxRules, nil); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, ErrNoSolution
	}
	return best, nil
}

// ExampleWeights extracts the weight vector of a task's examples for
// Search.
func ExampleWeights(examples []Example) []int {
	w := make([]int, len(examples))
	for i, e := range examples {
		w[i] = e.Weight
	}
	return w
}
