package ilasp_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// hypothesis renders a result for comparison: rules, cost, coverage and
// the check count.
func hypothesis(r *ilasp.Result) string {
	return fmt.Sprintf("%v cost=%d covered=%d/%d checks=%d", r.Hypothesis, r.Cost, r.Covered, r.Total, r.Checks)
}

// TestGuardsKeepSignatures: on the access-control job shapes, where
// ground body atoms refute most (candidate, example) pairs, the
// signatures built with guards equal those of a build that evaluates
// every pair, at widths 1 and 4.
func TestGuardsKeepSignatures(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		want, err := ilasp.VectorizeEveryPair(xacmlTask(noisy), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 4} {
			got, err := ilasp.Vectorize(xacmlTask(noisy), width, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("noisy=%v width %d: guards changed the signatures", noisy, width)
			}
		}
	}
}

// TestLearnedHypothesisOwnsItsRules: a learned hypothesis shares no
// memory with the memoized space it was chosen from. Overwriting its
// first rule's body literal and head in place must not change what the
// next learner over the same bias returns.
func TestLearnedHypothesisOwnsItsRules(t *testing.T) {
	learners := []struct {
		name  string
		learn func() (*ilasp.Result, error)
	}{
		{"LearnIndependent", func() (*ilasp.Result, error) {
			return xacmlTask(false).LearnIndependent(ilasp.LearnOptions{MaxRules: 4})
		}},
		{"Learn", func() (*ilasp.Result, error) {
			return datashareTask(t).Learn(ilasp.LearnOptions{MaxRules: 2})
		}},
	}
	for _, l := range learners {
		t.Run(l.name, func(t *testing.T) {
			res, err := l.learn()
			if err != nil {
				t.Fatal(err)
			}
			want := hypothesis(res)
			if len(res.Hypothesis) == 0 || res.Hypothesis[0].Head == nil || len(res.Hypothesis[0].Body) == 0 {
				t.Fatalf("need a headed first rule with a body, learned %s", want)
			}
			clobbered := asp.NewAtom("clobbered", asp.Constant{Name: "x"})
			res.Hypothesis[0].Body[0] = asp.PosLit(clobbered)
			*res.Hypothesis[0].Head = clobbered
			again, err := l.learn()
			if err != nil {
				t.Fatal(err)
			}
			if got := hypothesis(again); got != want {
				t.Fatalf("after overwriting the first hypothesis, learning again gives\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestConcurrentLearnersShareSpace runs LearnIndependent from several
// goroutines over one bias content: every caller gets the serial answer.
// Under -race this checks the memo's locking and that learners only read
// the shared space.
func TestConcurrentLearnersShareSpace(t *testing.T) {
	want := make([]string, 2)
	for i, noisy := range []bool{false, true} {
		res, err := xacmlTask(noisy).LearnIndependent(ilasp.LearnOptions{MaxRules: 4, Noise: noisy})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hypothesis(res)
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			noisy := g%2 == 1
			res, err := xacmlTask(noisy).LearnIndependent(ilasp.LearnOptions{MaxRules: 4, Noise: noisy})
			if err != nil {
				got[g] = err.Error()
				return
			}
			got[g] = hypothesis(res)
		}(g)
	}
	wg.Wait()
	for g, h := range got {
		if h != want[g%2] {
			t.Errorf("goroutine %d learned\n%s\nwant\n%s", g, h, want[g%2])
		}
	}
}

// TestBiasTaskMatchesExplicitSpace: for several distinct biases learned
// in one process, a task over the bias (served by the memo) and a task
// over the bias's enumerated space learn identical results, each time.
func TestBiasTaskMatchesExplicitSpace(t *testing.T) {
	schema := workload.DefaultSchema()
	xacml := func(thresholds []int) (ilasp.Bias, *ilasp.Task) {
		ds := workload.GenXACMLWith(5, 40, schema, workload.GroundTruthPolicy())
		return workload.AccessBias(schema, thresholds), &ilasp.Task{Examples: workload.LearningExamples(ds.Examples, 0)}
	}
	cases := []struct {
		name string
		task func() (ilasp.Bias, *ilasp.Task)
		opts ilasp.LearnOptions
	}{
		{"xacml", func() (ilasp.Bias, *ilasp.Task) { return xacml(nil) }, ilasp.LearnOptions{MaxRules: 4}},
		{"xacml-thresholds", func() (ilasp.Bias, *ilasp.Task) { return xacml([]int{30, 50}) }, ilasp.LearnOptions{MaxRules: 4}},
		{"cav", func() (ilasp.Bias, *ilasp.Task) {
			return cav.Bias(), &ilasp.Task{Background: cav.Background(), Examples: cav.LearningExamples(cav.Generate(2, 30), 0)}
		}, ilasp.LearnOptions{MaxRules: 3}},
		{"datashare", func() (ilasp.Bias, *ilasp.Task) {
			return datashare.Bias(), &ilasp.Task{Examples: datashare.LearningExamples(datashare.Generate(3, 30), 0)}
		}, ilasp.LearnOptions{MaxRules: 3}},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			bias, viaBias := c.task()
			viaBias.Bias = bias
			space, err := bias.Space()
			if err != nil {
				t.Fatal(err)
			}
			_, viaSpace := c.task()
			viaSpace.Space = space
			a, errA := viaBias.LearnIndependent(c.opts)
			b, errB := viaSpace.LearnIndependent(c.opts)
			if errA != nil || errB != nil {
				t.Fatalf("%s: errors: bias %v, space %v", c.name, errA, errB)
			}
			if ha, hb := hypothesis(a), hypothesis(b); ha != hb {
				t.Errorf("round %d, %s: bias task learned\n%s\nspace task learned\n%s", round, c.name, ha, hb)
			}
		}
	}
}
