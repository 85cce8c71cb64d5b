package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

// TestGroundingLatencyGuard is the CI regression gate for the compiled
// grounding planner (set AGENP_BENCH_GUARD=1 to run). It holds two
// budgets on the join-heavy corpus (groundBenchCorpus):
//
//   - One pass must scan at most 13,000 candidate facts
//     (asp.ground.candidates_scanned). The count is deterministic and
//     independent of hardware: the planner scanned 11,879 when the
//     budget was set (about 10% headroom), and the same planner without
//     index probes scans 54,195. Lost delta pinning, dead index probes
//     or a worse join order break this budget rather than nudge it.
//   - One pass must stay under 4 ms/op — roughly 4x headroom over the
//     level the plan VM + grounder pooling reached (~0.9 ms locally),
//     loose enough for CI hardware.
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
		for i := 0; i < b.N; i++ {
			if err := pass(); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("planned: %d ns/op", res.NsPerOp())
	if res.NsPerOp() > 4_000_000 {
		t.Errorf("planned grounding takes %d ns/op, above the 4 ms budget", res.NsPerOp())
	}
}
