package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/polcheck"
)

// TestPolcheckLatencyGuard is the CI regression gate for the symbolic
// verifier (set AGENP_BENCH_GUARD=1 to run): the AMS runs the same
// analysis inline on every regeneration and coalition import when the
// verification gate is enabled. The pairwise sweep is quadratic in
// policies; analysis stays cheap because region intersections and
// subtractions fail fast on the first disjoint slot, without
// materializing a region.
//
// The gate counts allocations, which do not depend on the host, where
// wall-clock time does: analyzing the 100-policy fixture makes 3,650
// allocations (3,649 in some runs; budget 4,000, about 10% headroom).
// With the vecsDisjoint fast paths removed from subtractVec and
// intersectRegions (eager materialization of every intersection and
// difference) it makes 23,850, and with subtractRegions rebuilding the
// region for every subtrahend 14,651, so either regression breaks the
// budget rather than nudging it. ns/op is logged for the record.
func TestPolcheckLatencyGuard(t *testing.T) {
	if os.Getenv("AGENP_BENCH_GUARD") == "" {
		t.Skip("set AGENP_BENCH_GUARD=1 to run the polcheck guard")
	}
	ps := polcheckFixture(100)
	analyze := func() {
		if rep := polcheck.AnalyzeSet(ps, polcheck.Options{}); len(rep.Findings) != 0 {
			t.Fatalf("fixture has findings: %v", rep)
		}
	}
	allocs := testing.AllocsPerRun(5, analyze)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyze()
		}
	})
	t.Logf("AnalyzeSet(100 policies): %.0f allocs/op, %d ns/op", allocs, res.NsPerOp())
	if allocs > 4_000 {
		t.Fatalf("AnalyzeSet at 100 policies makes %.0f allocs/op, above the 4,000 budget", allocs)
	}
}
