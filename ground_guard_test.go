package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

// TestGroundingLatencyGuard is the CI regression gate for the compiled
// grounding planner (set AGENP_BENCH_GUARD=1 to run). It holds three
// budgets on the join-heavy corpus (groundBenchCorpus), each a count
// that reads the code rather than the host:
//
//   - One pass must scan at most 13,000 candidate facts
//     (asp.ground.candidates_scanned). The count is deterministic: the
//     planner scanned 11,879 when the budget was set (about 10%
//     headroom), and the same planner without index probes scans 54,195.
//     Lost delta pinning, dead index probes or a worse join order break
//     this budget rather than nudge it.
//   - One warmed pass must make at most 5,000 allocations: 4,549–4,571
//     when the budget was set. Grounders come from a sync.Pool, which
//     drains on GC, so the count moves by a few dozen. Compiling every
//     plan afresh instead of reading the per-rule plan cache makes about
//     7,550.
//   - One warmed pass must allocate at most 390,000 bytes: 354–357 KB
//     when the budget was set. A grounder built per call instead of taken
//     from the pool re-grows its interner, relations and arena: 973 KB
//     (while its allocation count falls to 4,273), and the plan-cache
//     bypass reads 840 KB.
//
// ns/op is logged for the record; it reads the host.
func TestGroundingLatencyGuard(t *testing.T) {
	if os.Getenv("AGENP_BENCH_GUARD") == "" {
		t.Skip("set AGENP_BENCH_GUARD=1 to run the grounding latency guard")
	}

	progs := groundBenchCorpus(t)
	pass := func() error {
		for _, p := range progs {
			if _, err := asp.Ground(p, asp.GroundingOptions{}); err != nil {
				return err
			}
		}
		return nil
	}

	scanned := obs.C("asp.ground.candidates_scanned")
	before := scanned.Value()
	if err := pass(); err != nil {
		t.Fatal(err)
	}
	n := scanned.Value() - before
	t.Logf("one pass scans %d candidates", n)
	if n > 13_000 {
		t.Errorf("one pass scans %d candidates, above the 13,000 budget", n)
	}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pass(); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("one warmed pass: %d allocations, %d bytes, %d ns", res.AllocsPerOp(), res.AllocedBytesPerOp(), res.NsPerOp())
	if res.AllocsPerOp() > 5_000 {
		t.Errorf("one warmed pass makes %d allocations, above the 5,000 budget", res.AllocsPerOp())
	}
	if res.AllocedBytesPerOp() > 390_000 {
		t.Errorf("one warmed pass allocates %d bytes, above the 390,000 budget", res.AllocedBytesPerOp())
	}
}
