package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/apps/cav"
	"agenp/internal/experiments"
	"agenp/internal/ilasp"
	"agenp/internal/obs"
)

// TestLearningAllocGuard is the CI regression gate for the learning hot
// path (set AGENP_BENCH_GUARD=1 to run). It holds five budgets:
//
//   - E3 (clean learning, quick mode) must stay under 90k allocs/op —
//     the level after per-candidate coverage bitsets, per-worker
//     evaluator scratch, and the space-enumeration sort fix. The
//     pre-signature path allocated ~450k/op, so a fallback to
//     re-solve coverage or per-call evaluator allocation shows up as a
//     multi-x blowout, not a near miss. The hypothesis space is
//     memoized by bias content, so allocs/op amortises its one
//     enumeration over b.N.
//   - One E3 run (quick mode) must run at most 1,540 one-step candidate
//     evaluations in the signature builds (ilasp.sig.evals,
//     deterministic and independent of width): 1,400 when the budget
//     was set, of 23,100 (candidate, example) pairs, because ground body
//     atoms the example's base model lacks refute the rest. Evaluating
//     every pair again reads 23,100.
//   - One coverage check (ground-and-solve of background ∪ hypothesis ∪
//     context on a 20-scenario CAV task) must stay under 150 µs/op,
//     guarding the grounder/solver scratch reuse.
//   - One E6 run (noisy learning, quick mode) must do at most 2,300,000
//     units of noise-tolerant search work (ilasp.independent.noisy_work:
//     coverNoisy nodes expanded plus example statuses visited). The
//     count is deterministic and independent of hardware and
//     parallelism: the per-depth status-byte coverNoisy did 2,089,359
//     when the budget was set (about 10% headroom), and the same search
//     with the per-node full example rescan restored does 7,836,028, so
//     that fallback breaks the budget rather than nudging it.
//   - One E1 run (ASG learning, quick mode) must make at most 15 ground
//     calls (asp.ground.calls, deterministic): one solve of each of the
//     12 examples' tree programs, from which coverage signatures answer
//     every membership check, plus the probe of the learned grammar — 13
//     when the budget was set. Falling back to re-solving every
//     (hypothesis, example) check makes 117.
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
	if n > 1_540 {
		t.Errorf("E3 runs %d one-step candidate evaluations, above the budget of 1,540", n)
	}

	work := obs.C("ilasp.independent.noisy_work")
	before = work.Value()
	if _, err := experiments.Run("E6", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n = work.Value() - before
	t.Logf("E6 quick: %d units of noisy search work", n)
	if n > 2_300_000 {
		t.Errorf("E6 does %d units of noisy search work, above the 2,300,000 budget", n)
	}

	calls := obs.C("asp.ground.calls")
	before = calls.Value()
	if _, err := experiments.Run("E1", experiments.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	n = calls.Value() - before
	t.Logf("E1 quick: %d ground calls", n)
	if n > 15 {
		t.Errorf("E1 makes %d ground calls, above the budget of 15", n)
	}

	scenarios := cav.Generate(1, 20)
	task := &ilasp.Task{
		Background: cav.Background(),
		Bias:       cav.Bias(),
		Examples:   cav.LearningExamples(scenarios, 0),
	}
	res, err := task.LearnIndependent(ilasp.LearnOptions{MaxRules: 3})
	if err != nil {
		t.Fatal(err)
	}
	ex := task.Examples[0]
	cov := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := task.Covers(res.Hypothesis, ex); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("coverage check: %d ns/op", cov.NsPerOp())
	if cov.NsPerOp() > 150_000 {
		t.Errorf("coverage check takes %d ns/op, above the 150 µs budget", cov.NsPerOp())
	}
}
