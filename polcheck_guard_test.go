package agenp_test

import (
	"os"
	"testing"
)

// TestPolcheckLatencyGuard is the CI regression gate for the symbolic
// verifier (set AGENP_BENCH_GUARD=1 to run): the AMS runs the same
// analysis inline on every regeneration and coalition import when the
// verification gate is enabled. The pairwise sweep is quadratic in
// policies; analysis stays cheap because region intersections and
// subtractions fail fast on the first disjoint slot, without
// materializing a region.
//
// The gate counts allocations of each BenchmarkPolcheck workload, which
// do not depend on the host, where wall-clock time does. Each budget is
// about 10% over the count when it was set:
//
//   - analyze=100, AnalyzeSet of the 100-policy fixture: 3,650 (3,649 in
//     some runs; budget 4,000). With the vecsDisjoint fast paths
//     removed from subtractVec and intersectRegions (eager
//     materialization of every intersection and difference) it makes
//     23,850, and with subtractRegions rebuilding the region for every
//     subtrahend 14,651.
//   - analyze=10: 394 (budget 440; 614 without the fast paths).
//   - diff=100, DiffSets of two 100-policy fixtures one flip apart:
//     12,509 (12,510 in some runs; budget 13,800; 52,906 without the
//     fast paths).
//
// Either regression breaks a budget rather than nudging it. ns/op is
// logged for the record.
func TestPolcheckLatencyGuard(t *testing.T) {
	if os.Getenv("AGENP_BENCH_GUARD") == "" {
		t.Skip("set AGENP_BENCH_GUARD=1 to run the polcheck guard")
	}
	budgets := map[string]float64{"analyze=10": 440, "analyze=100": 4_000, "diff=100": 13_800}
	for _, w := range polcheckWorkloads() {
		allocs := testing.AllocsPerRun(5, func() { w.run(t) })
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.run(b)
			}
		})
		t.Logf("%s: %.0f allocs/op, %d ns/op", w.name, allocs, res.NsPerOp())
		if allocs > budgets[w.name] {
			t.Errorf("%s makes %.0f allocs/op, above the %.0f budget", w.name, allocs, budgets[w.name])
		}
	}
}
