package main

import (
	"fmt"
	"sort"
	"strings"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

// cavEnv is one CAV operating context: weather, vehicle level of
// autonomy, and the region's minimum level.
type cavEnv struct {
	Weather   string
	LOA       int
	RegionMin int
}

// cavMeaning is the hand-written meaning of one hypothesis-space rule
// attached to the "accept" production: whether it fires (so "accept
// task" is not generated) in an environment, and its ILASP cost.
type cavMeaning struct {
	Cost  int
	Fires func(e cavEnv, task string) bool
}

func cavRisky(task string) bool { return task == "overtake" || task == "navigate_junction" }
func cavAdverse(w string) bool  { return w == "rain" || w == "fog" || w == "snow" }
func weatherIs(w string) func(cavEnv, string) bool {
	return func(e cavEnv, _ string) bool { return e.Weather == w }
}
func taskIs(t string) func(cavEnv, string) bool {
	return func(_ cavEnv, task string) bool { return task == t }
}

// cavRules keys the meaning of each of the 7 rules of
// cav.HypothesisSpace by asg.DisplayRule.
var cavRules = map[string]cavMeaning{
	":- task(T)@2, risky(T), adverse(W), weather(W).": {4, func(e cavEnv, task string) bool {
		return cavRisky(task) && cavAdverse(e.Weather)
	}},
	":- loa(V), region_min(M), V < M.": {3, func(e cavEnv, _ string) bool { return e.LOA < e.RegionMin }},
	":- weather(rain).":                {1, weatherIs("rain")},
	":- weather(fog).":                 {1, weatherIs("fog")},
	":- weather(snow).":                {1, weatherIs("snow")},
	":- task(overtake)@2.":             {1, taskIs("overtake")},
	":- task(navigate_junction)@2.":    {1, taskIs("navigate_junction")},
}

// cavValid is the ground-truth driving rule: a risky task in adverse
// weather, or a vehicle below the region's minimum autonomy level, must
// be rejected.
func cavValid(e cavEnv, task string) bool {
	return !(cavRisky(task) && cavAdverse(e.Weather)) && e.LOA >= e.RegionMin
}

// cavAccepts reports whether a model with the given rules accepts the
// task in the environment: no rule fires.
func cavAccepts(table map[string]cavMeaning, rules []string, e cavEnv, task string) (bool, error) {
	for _, r := range rules {
		mean, ok := table[r]
		if !ok {
			return false, fmt.Errorf("rule %q is not in the hypothesis space", r)
		}
		if mean.Fires(e, task) {
			return false, nil
		}
	}
	return true, nil
}

// cavExpected is the policy set the CAV GPM with the given learned rules
// generates in an environment: "reject t" for every task, and "accept
// t" where no learned rule fires.
func cavExpected(table map[string]cavMeaning, rules []string, e cavEnv) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, t := range cav.Tasks {
		want["reject "+t] = true
		ok, err := cavAccepts(table, rules, e, t)
		if err != nil {
			return nil, err
		}
		if ok {
			want["accept "+t] = true
		}
	}
	return want, nil
}

// checkPolicySet compares an installed policy set with the expected one.
func checkPolicySet(got []string, want map[string]bool) error {
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		if !want[g] {
			return fmt.Errorf("unexpected policy %q installed (want %s)", g, setString(want))
		}
		seen[g] = true
	}
	for w := range want {
		if !seen[w] {
			return fmt.Errorf("policy %q missing (installed %v)", w, got)
		}
	}
	return nil
}

func setString(s map[string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, ", ") + "}"
}

// cavExample is one operator feedback observation.
type cavExample struct {
	Env   cavEnv
	Task  string
	Valid bool
}

// checkAdaptation verifies an adaptation: the added rules, on top of
// the rules learned before, classify every feedback example in the
// window correctly, and their cost equals the brute-force minimum over
// subsets of at most maxRules space rules.
func checkAdaptation(table map[string]cavMeaning, prev, added []string, window []cavExample, maxRules int) error {
	covers := func(rules []string) (bool, error) {
		for _, ex := range window {
			ok, err := cavAccepts(table, rules, ex.Env, ex.Task)
			if err != nil {
				return false, err
			}
			if ok != ex.Valid {
				return false, nil
			}
		}
		return true, nil
	}
	all := append(append([]string(nil), prev...), added...)
	ok, err := covers(all)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("added rules %v do not cover the feedback window", added)
	}
	cost := 0
	for _, r := range added {
		cost += table[r].Cost
	}
	space := make([]string, 0, len(table))
	for r := range table {
		space = append(space, r)
	}
	sort.Strings(space)
	best := -1
	var walk func(from, size, c int, chosen []string) error
	walk = func(from, size, c int, chosen []string) error {
		if best >= 0 && c >= best {
			return nil
		}
		ok, err := covers(append(append([]string(nil), prev...), chosen...))
		if err != nil {
			return err
		}
		if ok {
			best = c
			return nil
		}
		if size == maxRules {
			return nil
		}
		for i := from; i < len(space); i++ {
			if err := walk(i+1, size+1, c+table[space[i]].Cost, append(chosen, space[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0, 0, nil); err != nil {
		return err
	}
	if best < 0 {
		return fmt.Errorf("no subset of at most %d space rules covers the window, yet %v was learned", maxRules, added)
	}
	if cost != best {
		return fmt.Errorf("added rules %v cost %d, brute-force minimum is %d", added, cost, best)
	}
	return nil
}

// cavAccuracy scores a model's rules against the ground truth on every
// context × task point of the domain.
func cavAccuracy(table map[string]cavMeaning, rules []string) (float64, error) {
	agree, total := 0, 0
	for _, e := range cavDomain() {
		for _, t := range cav.Tasks {
			ok, err := cavAccepts(table, rules, e, t)
			if err != nil {
				return 0, err
			}
			if ok == cavValid(e, t) {
				agree++
			}
			total++
		}
	}
	return float64(agree) / float64(total), nil
}

func cavDomain() []cavEnv {
	var out []cavEnv
	for _, w := range cav.Weathers {
		for _, l := range cav.LOALevels {
			for _, m := range cav.RegionMinima {
				out = append(out, cavEnv{Weather: w, LOA: l, RegionMin: m})
			}
		}
	}
	return out
}

// cavContext renders an environment as the AMS sees it: the
// environment facts plus the CAV background ontology.
func cavContext(e cavEnv) *asp.Program {
	p := cav.Scenario{Weather: e.Weather, LOA: e.LOA, RegionMin: e.RegionMin}.EnvContext()
	p.Extend(cav.Background())
	return p
}

// learnedRules lists the rules the model has added to the "accept"
// production, in insertion order.
func learnedRules(m *core.GPM) []string {
	ann := m.Grammar.Annotations[0]
	if ann == nil {
		return nil
	}
	out := make([]string, len(ann.Rules))
	for i, r := range ann.Rules {
		out[i] = asg.DisplayRule(r)
	}
	return out
}

func policyTexts(ams *agenp.AMS) []string {
	ps := ams.Repository().List()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Text()
	}
	return out
}

const (
	cavMissionEpochs = 30
	cavMaxRules      = 3 // ilasp's default LearnOptions.MaxRules
)

// cavWorkload runs the Fig. 2 autonomic loop on the CAV application.
type cavWorkload struct {
	initial  *core.GPM
	space    []asg.HypothesisRule
	contexts map[cavEnv]*asp.Program
	requests []xacml.Request // decidePasses passes over the tasks
	ctx      *switchContext

	decisions []xacml.Decision
	errs      []error

	rng    *workload.RNG
	ams    *agenp.AMS
	epoch  int
	env    cavEnv
	rules  []string
	window []cavExample
}

func newCAV() (runner, error) {
	initial, err := core.ParseGPM(cav.LearnableGrammarSource)
	if err != nil {
		return nil, err
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		return nil, err
	}
	w := &cavWorkload{
		initial:  initial,
		space:    space,
		contexts: make(map[cavEnv]*asp.Program),
		ctx:      &switchContext{},
	}
	for _, e := range cavDomain() {
		w.contexts[e] = cavContext(e)
	}
	for i := 0; i < decidePasses; i++ {
		for _, t := range cav.Tasks {
			w.requests = append(w.requests, xacml.NewRequest().Set(xacml.Action, "id", xacml.S(t)))
		}
	}
	w.decisions = make([]xacml.Decision, len(w.requests))
	w.errs = make([]error, len(w.requests))
	return w, nil
}

func (w *cavWorkload) restart(seed uint64) {
	w.rng, w.ams, w.env = workload.NewRNG(seed), nil, cavEnv{}
}

// newMission restarts from the syntax-only GPM.
func (w *cavWorkload) newMission(m *meter) {
	if w.ams != nil && w.epoch >= cavMissionEpochs {
		acc, err := cavAccuracy(cavRules, w.rules)
		if err != nil {
			m.fail(opAdapt, "scoring mission: %v", err)
		} else {
			m.accuracy = append(m.accuracy, acc)
		}
	}
	ams, err := agenp.New(agenp.Config{
		Name:    "cav",
		Model:   w.initial,
		Space:   w.space,
		Context: w.ctx,
		Interpreter: &agenp.TokenInterpreter{
			PermitVerbs: []string{"accept"},
			DenyVerbs:   []string{"deny"},
		},
		AdaptThreshold: 3,
	})
	if err != nil {
		panic(err) // the configuration is fixed; New fails only on a bug
	}
	w.ams, w.epoch, w.rules, w.window = ams, 0, nil, nil
}

// step runs one epoch: a context change, a regeneration, a batch of
// decisions, and operator feedback on each permitted task of the batch's
// first pass.
func (w *cavWorkload) step(m *meter) {
	if w.ams == nil || w.epoch >= cavMissionEpochs {
		w.newMission(m)
	}
	w.epoch++
	prev := w.env
	for w.env == prev {
		w.env = cavEnv{
			Weather:   workload.Pick(w.rng, cav.Weathers),
			LOA:       workload.Pick(w.rng, cav.LOALevels),
			RegionMin: workload.Pick(w.rng, cav.RegionMinima),
		}
	}
	ctx := w.contexts[w.env]
	w.ctx.set(ctx)

	o := m.begin(opRegen, 1)
	c := o.child()
	_, _, err := w.ams.Regenerate()
	o.endChild(c, "agenp.AMS.Regenerate")
	if err != nil {
		m.fail(opRegen, "Regenerate: %v", err)
		w.ams = nil
		return
	}
	o.end(1)
	want, err := cavExpected(cavRules, w.rules, w.env)
	if err == nil {
		err = checkPolicySet(policyTexts(w.ams), want)
	}
	m.check(opRegen, err)

	o = m.begin(opDecide, len(w.requests))
	c = o.child()
	for i, r := range w.requests {
		w.decisions[i], _, w.errs[i] = w.ams.Decide(r)
	}
	o.endChild(c, "agenp.AMS.Decide", callsAttr(len(w.requests)))
	o.end(len(w.requests))
	for i := range w.requests {
		t := cav.Tasks[i%len(cav.Tasks)]
		if w.errs[i] != nil {
			m.fail(opDecide, "Decide %s: %v", t, w.errs[i])
			continue
		}
		wantD := xacml.DecisionNotApplicable
		if want["accept "+t] {
			wantD = xacml.DecisionPermit
		}
		if w.decisions[i] != wantD {
			m.fail(opDecide, "check: Decide %s in %+v = %v, want %v", t, w.env, w.decisions[i], wantD)
		}
	}
	decisions := w.decisions[:len(cav.Tasks)]

	for i, t := range cav.Tasks {
		if decisions[i] != xacml.DecisionPermit {
			continue
		}
		ex := cavExample{Env: w.env, Task: t, Valid: cavValid(w.env, t)}
		w.window = append(w.window, ex)
		o := m.begin(opAdapt, 1)
		c := o.child()
		adapted, err := w.ams.Observe(core.Feedback{Tokens: []string{"accept", t}, Context: ctx, Valid: ex.Valid})
		o.endChild(c, "agenp.AMS.Observe")
		if err != nil {
			m.fail(opAdapt, "Observe: %v", err)
			w.ams = nil
			return
		}
		if !adapted {
			continue
		}
		o.end(1)
		rules := learnedRules(w.ams.Models().Latest())
		if len(rules) < len(w.rules) {
			m.fail(opAdapt, "check: adaptation dropped learned rules: %v -> %v", w.rules, rules)
		} else {
			m.check(opAdapt, checkAdaptation(cavRules, w.rules, rules[len(w.rules):], w.window, cavMaxRules))
		}
		w.rules, w.window = rules, nil
		want, err := cavExpected(cavRules, w.rules, w.env)
		if err == nil {
			err = checkPolicySet(policyTexts(w.ams), want)
		}
		m.check(opAdapt, err)
		// The remaining permits were decided under the superseded
		// generation; the operator reviews only current decisions.
		break
	}
}

func (w *cavWorkload) close() {}
