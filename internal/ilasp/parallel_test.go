package ilasp_test

import (
	"errors"
	"strings"
	"testing"

	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// datashareTask builds an exhaustive-learnable sharing task: offers are
// restricted to non-sigint types so the ground truth needs only two deny
// rules (low trust, low quality) and the exact search stays small.
func datashareTask(t *testing.T) *ilasp.Task {
	t.Helper()
	var offers []datashare.Offer
	for _, o := range datashare.Generate(7, 40) {
		if o.Type == "sigint" {
			continue
		}
		offers = append(offers, o)
		if len(offers) == 12 {
			break
		}
	}
	if len(offers) < 12 {
		t.Fatalf("sample too small: %d offers", len(offers))
	}
	return &ilasp.Task{
		Bias:     datashare.Bias(),
		Examples: datashare.LearningExamples(offers, 0),
	}
}

func resultsEqual(a, b *ilasp.Result) bool {
	if a.Cost != b.Cost || a.Covered != b.Covered || a.Total != b.Total || a.Checks != b.Checks {
		return false
	}
	if len(a.Hypothesis) != len(b.Hypothesis) {
		return false
	}
	for i := range a.Hypothesis {
		if a.Hypothesis[i].String() != b.Hypothesis[i].String() {
			return false
		}
	}
	return true
}

// xacmlTask builds an access-control learning task in the shape of the
// benchmark's learning jobs: an exact job over 80 clean labels, or a
// noise-tolerant job over 40 labels with 15% injected noise.
func xacmlTask(noisy bool) *ilasp.Task {
	schema := workload.DefaultSchema()
	size, weight := 80, 0
	if noisy {
		size, weight = 40, 10
	}
	ds := workload.GenXACMLWith(3, size, schema, workload.GroundTruthPolicy())
	if noisy {
		workload.InjectNoise(ds, 0.15, 4)
	}
	return &ilasp.Task{Bias: workload.AccessBias(schema, nil), Examples: workload.LearningExamples(ds.Examples, weight)}
}

// TestParallelLearnMatchesSerial runs each learner serially and with a
// wider worker pool on the same task: the hypothesis, cost, coverage,
// and check count must be byte-identical. The exhaustive learner runs on
// a datashare task; LearnIndependent, whose signature builder shares the
// fan-out, on exact and noisy access-control tasks. Run under -race this
// also exercises the oracle's and the builder's concurrency safety.
func TestParallelLearnMatchesSerial(t *testing.T) {
	cases := []struct {
		name  string
		task  func(*testing.T) *ilasp.Task
		learn func(*ilasp.Task, ilasp.LearnOptions) (*ilasp.Result, error)
		opts  ilasp.LearnOptions
		par   int
	}{
		{"datashare/Learn", datashareTask, (*ilasp.Task).Learn, ilasp.LearnOptions{MaxRules: 2}, 8},
		{"xacml-exact/LearnIndependent", func(*testing.T) *ilasp.Task { return xacmlTask(false) }, (*ilasp.Task).LearnIndependent, ilasp.LearnOptions{MaxRules: 4}, 4},
		{"xacml-noisy/LearnIndependent", func(*testing.T) *ilasp.Task { return xacmlTask(true) }, (*ilasp.Task).LearnIndependent, ilasp.LearnOptions{MaxRules: 4, Noise: true}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Parallelism = 1
			serial, err := c.learn(c.task(t), opts)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			opts.Parallelism = c.par
			parallel, err := c.learn(c.task(t), opts)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !resultsEqual(serial, parallel) {
				t.Fatalf("parallel result differs from serial:\nserial:   %v (checks %d)\nparallel: %v (checks %d)",
					serial, serial.Checks, parallel, parallel.Checks)
			}
			if !opts.Noise && serial.Covered != serial.Total {
				t.Fatalf("covered %d/%d, want full coverage", serial.Covered, serial.Total)
			}
			if len(serial.Hypothesis) == 0 {
				t.Fatal("expected a non-empty hypothesis")
			}
		})
	}
}

// TestParallelNoisyLearnMatchesSerial repeats the determinism check in
// noise-tolerant mode, whose branch-and-bound cutoffs depend on the
// replay order of speculative checks.
func TestParallelNoisyLearnMatchesSerial(t *testing.T) {
	mk := func() *ilasp.Task {
		task := datashareTask(t)
		for i := range task.Examples {
			task.Examples[i].Weight = 1 + i%3
		}
		return task
	}
	opts := ilasp.LearnOptions{MaxRules: 2, Noise: true}

	opts.Parallelism = 1
	serial, err := mk().Learn(opts)
	if err != nil {
		t.Fatalf("serial Learn: %v", err)
	}
	opts.Parallelism = 8
	parallel, err := mk().Learn(opts)
	if err != nil {
		t.Fatalf("parallel Learn: %v", err)
	}
	if !resultsEqual(serial, parallel) {
		t.Fatalf("parallel result differs from serial:\nserial:   %v (checks %d)\nparallel: %v (checks %d)",
			serial, serial.Checks, parallel, parallel.Checks)
	}
}

// TestParallelLearnPropagatesError checks first-error cancellation: an
// example whose context fails to ground must abort a parallel search
// with the same wrapped error a serial run reports.
func TestParallelLearnPropagatesError(t *testing.T) {
	unsafe := asp.NewRule(asp.NewAtom("p", asp.Variable{Name: "X"})) // p(X). — unsafe
	task := datashareTask(t)
	task.Examples[4].Context.Add(unsafe)

	opts := ilasp.LearnOptions{MaxRules: 2}
	opts.Parallelism = 1
	_, serialErr := task.Learn(opts)
	opts.Parallelism = 8
	_, parallelErr := task.Learn(opts)

	for _, err := range []error{serialErr, parallelErr} {
		if err == nil {
			t.Fatal("expected an error from the unsafe example context")
		}
		if !strings.Contains(err.Error(), "checking example o5") {
			t.Fatalf("error %q does not name the failing example", err)
		}
	}
	if serialErr.Error() != parallelErr.Error() {
		t.Fatalf("serial and parallel errors differ:\nserial:   %v\nparallel: %v", serialErr, parallelErr)
	}
}

// TestParallelCheckBudget checks that MaxChecks accounting is unchanged
// by parallelism: the budget error fires on the same logical check.
func TestParallelCheckBudget(t *testing.T) {
	for _, par := range []int{1, 8} {
		opts := ilasp.LearnOptions{MaxRules: 2, MaxChecks: 5, Parallelism: par}
		_, err := datashareTask(t).Learn(opts)
		if !errors.Is(err, ilasp.ErrCheckBudget) {
			t.Fatalf("parallelism %d: err = %v, want ErrCheckBudget", par, err)
		}
	}
}
