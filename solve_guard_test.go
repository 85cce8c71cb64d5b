package agenp_test

import (
	"os"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

// TestSolveWorkGuard is the CI regression gate for the CDNL search (set
// AGENP_BENCH_GUARD=1 to run). One SolveGround of each
// BenchmarkSolveEngines program, enumerating every answer set, must
// stay within budgets on branching decisions and unit propagations
// (asp.solve.decisions, asp.solve.propagations). Both counts are
// deterministic and independent of hardware; each budget is about 10%
// over the count when it was set:
//
//   - tight: 65 decisions, 1,904 propagations (budgets 72 and 2,100);
//   - nontight: 65 and 1,928 (budgets 72 and 2,120);
//   - unsat: 12 and 811 (budgets 13 and 890).
//
// The first two meet no conflict, so only unsat exercises learning and
// activity-ordered branching: branching in variable order, with
// activity ignored, refutes it in 27 decisions and 1,574 propagations.
// Enumeration that restarts from the root after each answer set, where
// it should backtrack one level, takes 194 decisions and 5,104
// propagations on tight. Either breaks a budget rather than nudging it.
func TestSolveWorkGuard(t *testing.T) {
	if os.Getenv("AGENP_BENCH_GUARD") == "" {
		t.Skip("set AGENP_BENCH_GUARD=1 to run the solver work guard")
	}
	budgets := map[string][2]int64{
		"tight":    {72, 2_100},
		"nontight": {72, 2_120},
		"unsat":    {13, 890},
	}
	decisions, props := obs.C("asp.solve.decisions"), obs.C("asp.solve.propagations")
	for _, tc := range solveBenchCases(t) {
		d0, p0 := decisions.Value(), props.Value()
		if _, err := asp.SolveGround(tc.g, asp.SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		d, p := decisions.Value()-d0, props.Value()-p0
		t.Logf("%s: %d decisions, %d propagations", tc.name, d, p)
		if b := budgets[tc.name]; d > b[0] || p > b[1] {
			t.Errorf("%s: %d decisions and %d propagations, above the budgets of %d and %d", tc.name, d, p, b[0], b[1])
		}
	}
}
