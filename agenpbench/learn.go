package main

import (
	"fmt"

	"agenp/internal/asp"
	"agenp/internal/engine"
	"agenp/internal/ilasp"
	"agenp/internal/polcheck"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

const (
	exactLogSize = 80
	noisyLogSize = 40
	noiseFrac    = 0.15
	noiseWeight  = 10
	learnRules   = 4 // LearnOptions.MaxRules of the E3/E6 learning jobs
	// domainPasses is how often each job's decider serves the whole
	// request domain.
	domainPasses = 8
)

// rolePartitionPolicy is the complete ground truth of the noisy jobs:
// every request is decided by role alone, so an injected NotApplicable
// is always a wrong label.
func rolePartitionPolicy() *xacml.Policy {
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

// hypothesisCost is ILASP's rule length summed over a hypothesis: 1 for
// the head plus 1 per body literal.
func hypothesisCost(rules []asp.Rule) int {
	c := 0
	for _, r := range rules {
		c += 1 + len(r.Body)
	}
	return c
}

// policyCost is the same measure on an XACML policy: 1 per rule plus 1
// per target match.
func policyCost(p *xacml.Policy) int {
	c := 0
	for _, r := range p.Rules {
		c += 1 + len(r.Target)
	}
	return c
}

// missedLabels counts training labels the policy does not reproduce
// under the tree-walk evaluator.
func missedLabels(p *xacml.Policy, log []workload.LabeledRequest) int {
	n := 0
	for _, e := range log {
		if p.Evaluate(e.Request) != e.Decision {
			n++
		}
	}
	return n
}

// checkExactJob: the learned policy reproduces every training label and
// costs no more than the ground truth.
func checkExactJob(learned *xacml.Policy, cost int, log []workload.LabeledRequest, truth *xacml.Policy) error {
	if n := missedLabels(learned, log); n > 0 {
		return fmt.Errorf("learned policy misses %d of %d training labels", n, len(log))
	}
	if gt := policyCost(truth); cost > gt {
		return fmt.Errorf("learned hypothesis costs %d, ground truth %d", cost, gt)
	}
	return nil
}

// checkNoisyJob: the learned policy's score (cost + weight × missed
// labels) is at most the ground truth's.
func checkNoisyJob(learned *xacml.Policy, cost int, log []workload.LabeledRequest, truth *xacml.Policy) error {
	got := cost + noiseWeight*missedLabels(learned, log)
	want := policyCost(truth) + noiseWeight*missedLabels(truth, log)
	if got > want {
		return fmt.Errorf("learned policy scores %d, ground truth %d", got, want)
	}
	return nil
}

// checkDecider: the compiled decider agrees with the tree-walk on every
// domain request, in every pass over the domain.
func checkDecider(got []xacml.Decision, learned *xacml.Policy, domain []xacml.Request) error {
	for i, r := range domain {
		want := learned.Evaluate(r)
		for j := i; j < len(got); j += len(domain) {
			if got[j] != want {
				return fmt.Errorf("decider says %v, tree-walk %v on %s", got[j], want, r.Key())
			}
		}
	}
	return nil
}

func domainAccuracy(learned, truth *xacml.Policy, domain []xacml.Request) float64 {
	agree := 0
	for _, r := range domain {
		if learned.Evaluate(r) == truth.Evaluate(r) {
			agree++
		}
	}
	return float64(agree) / float64(len(domain))
}

// xacmlDomain enumerates every request of the schema (216 for the
// default schema).
func xacmlDomain(s workload.XACMLSchema) []xacml.Request {
	var out []xacml.Request
	for _, role := range s.Roles {
		for _, age := range s.Ages {
			for _, res := range s.Resources {
				for _, act := range s.Actions {
					out = append(out, xacml.NewRequest().
						Set(xacml.Subject, "role", xacml.S(role)).
						Set(xacml.Subject, "age", xacml.I(age)).
						Set(xacml.Resource, "type", xacml.S(res)).
						Set(xacml.Action, "id", xacml.S(act)))
				}
			}
		}
	}
	return out
}

// learnWorkload runs access-control learning jobs (§IV, Fig. 3a/3b),
// alternating exact and noise-tolerant jobs.
type learnWorkload struct {
	schema    workload.XACMLSchema
	exactGT   *xacml.Policy
	noisyGT   *xacml.Policy
	domain    []xacml.Request
	decisions []xacml.Decision
	rng       *workload.RNG
	jobs      int
}

func newLearn() (runner, error) {
	s := workload.DefaultSchema()
	w := &learnWorkload{
		schema:  s,
		exactGT: workload.GroundTruthPolicy(),
		noisyGT: rolePartitionPolicy(),
		domain:  xacmlDomain(s),
	}
	w.decisions = make([]xacml.Decision, domainPasses*len(w.domain))
	return w, nil
}

func (w *learnWorkload) restart(seed uint64) {
	w.rng, w.jobs = workload.NewRNG(seed), 0
}

// step runs one job; even jobs are exact, odd ones noise-tolerant.
func (w *learnWorkload) step(m *meter) {
	noisy := w.jobs%2 == 1
	w.jobs++
	jobSeed := w.rng.Uint64()
	kind, truth, size, weight := opLearn, w.exactGT, exactLogSize, 0
	if noisy {
		kind, truth, size, weight = opNoisyLearn, w.noisyGT, noisyLogSize, noiseWeight
	}
	ds := workload.GenXACMLWith(jobSeed, size, w.schema, truth)
	if noisy {
		workload.InjectNoise(ds, noiseFrac, jobSeed+1)
	}
	task := &ilasp.Task{
		Bias:     workload.AccessBias(w.schema, nil),
		Examples: workload.LearningExamples(ds.Examples, weight),
	}

	o := m.begin(kind, 1)
	c := o.child()
	res, err := task.LearnIndependent(ilasp.LearnOptions{MaxRules: learnRules, Noise: noisy})
	o.endChild(c, "ilasp.Task.LearnIndependent")
	if err != nil {
		m.fail(kind, "LearnIndependent: %v", err)
		return
	}
	c = o.child()
	learned, err := xacml.PolicyFromHypothesis(res.Hypothesis, "learned")
	o.endChild(c, "xacml.PolicyFromHypothesis")
	if err != nil {
		m.fail(kind, "PolicyFromHypothesis: %v", err)
		return
	}
	set := &xacml.PolicySet{ID: "learned-set", Policies: []*xacml.Policy{learned}, Combining: xacml.DenyOverrides}
	c = o.child()
	polcheck.AnalyzeSet(set, polcheck.Options{})
	o.endChild(c, "polcheck.AnalyzeSet")
	c = o.child()
	dec, err := engine.NewXACMLDecider(set)
	o.endChild(c, "engine.NewXACMLDecider")
	if err != nil {
		m.fail(kind, "NewXACMLDecider: %v", err)
		return
	}
	o.end(1)

	o = m.begin(opDecide, domainPasses*len(w.domain))
	c = o.child()
	for p := 0; p < domainPasses; p++ {
		for i, r := range w.domain {
			w.decisions[p*len(w.domain)+i], _ = dec.Decide(r)
		}
	}
	o.endChild(c, "engine.XACMLDecider.Decide", callsAttr(domainPasses*len(w.domain)))
	o.end(domainPasses * len(w.domain))

	cost := hypothesisCost(res.Hypothesis)
	if noisy {
		m.check(kind, checkNoisyJob(learned, cost, ds.Examples, truth))
	} else {
		m.check(kind, checkExactJob(learned, cost, ds.Examples, truth))
	}
	m.check(opDecide, checkDecider(w.decisions, learned, w.domain))
	m.accuracy = append(m.accuracy, domainAccuracy(learned, truth, w.domain))
}

func (w *learnWorkload) close() {}
