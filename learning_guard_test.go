package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/experiments"
	"agenp/internal/obs"
)

// TestLearningAllocGuard is the CI regression gate for the learning hot
// path (set AGENP_BENCH_GUARD=1 to run). It holds six budgets:
//
//   - E3 (clean learning, quick mode) must stay under 90k allocs/op —
//     the level after per-candidate coverage bitsets, per-worker
//     evaluator scratch, and the space-enumeration sort fix. The
//     pre-signature path allocated ~450k/op, so a fallback to
//     re-solve coverage or per-call evaluator allocation shows up as a
//     multi-x blowout, not a near miss. The hypothesis space is
//     memoized by bias content, so allocs/op amortises its one
//     enumeration over b.N.
//   - One E3 run (quick mode) must run at most 140 one-step candidate
//     evaluations in the signature builds (ilasp.sig.evals,
//     deterministic and independent of width): 0 when the budget was
//     set. Of its 23,100 (candidate, example) pairs, ground body atoms
//     the example's base model lacks refute all but 1,400, and every
//     candidate of the access-control space is decided, so those 1,400
//     are read off the guard bits (ilasp.sig.decided). Evaluating the
//     decided pairs again reads 1,400, and every pair 23,100.
//   - One E6 run (noisy learning, quick mode) must do at most 30,000
//     units of noise-tolerant search work (ilasp.independent.noisy_work:
//     coverNoisy nodes expanded, example statuses visited and candidates
//     its remaining-slot bound scans). The count is deterministic and
//     independent of hardware and parallelism: 27,118 when the budget
//     was set (about 10% headroom), against 2,089,359 before canonical
//     branching and the bound. The same search without the canonical
//     exclusions does 321,848, and without the bound 442,609, so losing
//     either pruning breaks the budget rather than nudging it.
//   - One E1 run (ASG learning, quick mode) must make at most 15 solve
//     calls (asp.solve.calls, deterministic): one solve of each of the
//     12 examples' tree programs, from which coverage signatures answer
//     every membership check, plus the probe of the learned grammar — 13
//     when the budget was set. Most of those tree programs are plain
//     facts, which are not grounded (1 ground call). Falling back to
//     re-solving every (hypothesis, example) check makes 101.
//   - One E2 run (the AMS pipeline, quick mode) must make at most 5
//     ground calls and 21 solve calls (asp.ground.calls,
//     asp.solve.calls, deterministic): 4 and 19 when the budgets were
//     set; the other 15 solves are of plain-fact programs. A
//     regeneration that re-checks each generated policy's membership
//     (GPM.Validate: one more parse and solve per policy) makes 4 and
//     31. The ASG learner's re-solve fallback makes 7 and 20 here, as E2
//     adapts once from a few examples; E1's budget catches it too.
//   - One coverage check (coverageCheck: ground-and-solve of background
//     ∪ hypothesis ∪ context on a 20-scenario CAV task) must make at
//     most 176 allocations after a warm-up run: 160 when the budget was
//     set. Grounders come from a pool; a check that builds its own
//     makes 224. (Its programs are definite, so the grounder decides
//     them and the solver pool is not on this path.) ns/op is logged
//     for the record; it reads the host.
func TestLearningAllocGuard(t *testing.T) {
	if os.Getenv("AGENP_BENCH_GUARD") == "" {
		t.Skip("set AGENP_BENCH_GUARD=1 to run the allocation guard")
	}

	e3 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run("E3", experiments.Options{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("E3 quick: %d ns/op, %d allocs/op", e3.NsPerOp(), e3.AllocsPerOp())
	if e3.AllocsPerOp() > 90_000 {
		t.Errorf("E3 allocates %d/op, above the 90k budget", e3.AllocsPerOp())
	}

	evals := obs.C("ilasp.sig.evals")
	before := evals.Value()
	if _, err := experiments.Run("E3", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n := evals.Value() - before
	t.Logf("E3 quick: %d one-step candidate evaluations", n)
	if n > 140 {
		t.Errorf("E3 runs %d one-step candidate evaluations, above the budget of 140", n)
	}

	work := obs.C("ilasp.independent.noisy_work")
	before = work.Value()
	if _, err := experiments.Run("E6", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n = work.Value() - before
	t.Logf("E6 quick: %d units of noisy search work", n)
	if n > 30_000 {
		t.Errorf("E6 does %d units of noisy search work, above the 30,000 budget", n)
	}

	calls, solves := obs.C("asp.ground.calls"), obs.C("asp.solve.calls")
	before = solves.Value()
	if _, err := experiments.Run("E1", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n = solves.Value() - before
	t.Logf("E1 quick: %d solve calls", n)
	if n > 15 {
		t.Errorf("E1 makes %d solve calls, above the budget of 15", n)
	}

	before, solvesBefore := calls.Value(), solves.Value()
	if _, err := experiments.Run("E2", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n, m := calls.Value()-before, solves.Value()-solvesBefore
	t.Logf("E2 quick: %d ground calls, %d solve calls", n, m)
	if n > 5 || m > 21 {
		t.Errorf("E2 makes %d ground calls and %d solve calls, above the budgets of 5 and 21", n, m)
	}

	check := coverageCheck(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := check(); err != nil {
			t.Fatal(err)
		}
	})
	cov := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := check(); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("coverage check: %.0f allocs/op, %d ns/op", allocs, cov.NsPerOp())
	if allocs > 176 {
		t.Errorf("coverage check makes %.0f allocs/op, above the budget of 176", allocs)
	}
}
