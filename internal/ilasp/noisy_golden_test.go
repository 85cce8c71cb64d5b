package ilasp_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"agenp/internal/ilasp"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

var updateNoisyGolden = flag.Bool("update", false, "rewrite testdata/noisy_jobs.golden from the current learner")

const noisyGolden = "testdata/noisy_jobs.golden"

// rolePartition decides every request by role alone (dba and analyst
// permitted, guest and dev denied), so each injected label is wrong.
func rolePartition() *xacml.Policy {
	pol := &xacml.Policy{ID: "role-partition", Combining: xacml.FirstApplicable}
	for _, r := range []struct {
		role   string
		effect xacml.Effect
	}{{"dba", xacml.Permit}, {"analyst", xacml.Permit}, {"guest", xacml.Deny}, {"dev", xacml.Deny}} {
		pol.Rules = append(pol.Rules, xacml.Rule{
			ID:     r.role,
			Effect: r.effect,
			Target: xacml.Target{{Category: xacml.Subject, Attr: "role", Op: xacml.OpEq, Value: xacml.S(r.role)}},
		})
	}
	return pol
}

// noisyJob is one noise-tolerant access-control job in the benchmark's
// shape: 40 requests labelled by the role partition, 15% of the labels
// corrupted, each example weighing 10.
func noisyJob(seed uint64) *ilasp.Task {
	schema := workload.DefaultSchema()
	ds := workload.GenXACMLWith(seed, 40, schema, rolePartition())
	workload.InjectNoise(ds, 0.15, seed+1)
	return &ilasp.Task{Bias: workload.AccessBias(schema, nil), Examples: workload.LearningExamples(ds.Examples, 10)}
}

// TestNoisyJobsGolden pins what the noise-tolerant search returns on 40
// seeded jobs: hypothesis, cost, Covered and Checks. Among equally
// optimal hypotheses the search keeps the first it meets, so a change
// to its branching order or pruning that alters a tie shows here even
// when the optimum holds. Run with -update to rewrite the golden file.
func TestNoisyJobsGolden(t *testing.T) {
	rng := workload.NewRNG(7)
	var b strings.Builder
	for job := 0; job < 40; job++ {
		seed := rng.Uint64()
		res, err := noisyJob(seed).LearnIndependent(ilasp.LearnOptions{MaxRules: 4, Noise: true})
		if err != nil {
			t.Fatalf("job %d (seed %d): %v", job, seed, err)
		}
		fmt.Fprintf(&b, "%d %s\n", seed, hypothesis(res))
	}
	got := b.String()
	if *updateNoisyGolden {
		if err := os.WriteFile(noisyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(noisyGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d jobs learned, golden file holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("job %d:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
