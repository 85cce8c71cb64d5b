package ilasp_test

import (
	"testing"

	"agenp/internal/ilasp"
	"agenp/internal/obs"
)

// TestChecksBackedByCounter pins down that Solution.Checks and the
// telemetry counter "ilasp.search.checks" carry the same total: the
// checker counts once and flushes that count to both. Tests in a package
// run sequentially, so counter deltas around a Learn call are
// attributable to it.
func TestChecksBackedByCounter(t *testing.T) {
	checksCtr := obs.C("ilasp.search.checks")
	hypsCtr := obs.C("ilasp.search.hypotheses")

	base, hypsBase := checksCtr.Value(), hypsCtr.Value()
	res, err := datashareTask(t).Learn(ilasp.LearnOptions{MaxRules: 2})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if delta := checksCtr.Value() - base; int64(res.Checks) != delta {
		t.Fatalf("Solution.Checks = %d but counter delta = %d", res.Checks, delta)
	}
	if hypsCtr.Value() == hypsBase {
		t.Fatal("ilasp.search.hypotheses did not advance during Learn")
	}
}
