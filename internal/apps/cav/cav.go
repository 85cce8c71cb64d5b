// Package cav implements the connected-and-autonomous-vehicles
// application of the paper (Section IV.A, after Cunnington et al.): a
// CAV learns a generative policy model that states whether a request to
// execute a driving task should be accepted or rejected, based on the
// environmental conditions and the SAE level of autonomy (LOA) of the
// vehicle and region.
//
// The package provides the scenario generator, the symbolic learning
// task (learned, predicted and scored by package apps), the feature
// encoding for the shallow-ML baselines, and the ASG-based GPM — everything needed to reproduce the paper's claim that
// the symbolic learner reaches higher accuracy from fewer examples than
// shallow ML (experiment E7).
package cav

import (
	"fmt"
	"strconv"

	"agenp/internal/apps"
	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// Domain constants.
var (
	// Weathers lists environmental conditions; all but "clear" are
	// adverse.
	Weathers = []string{"clear", "rain", "fog", "snow"}
	// Tasks lists driving tasks; RiskyTasks are unsafe in adverse
	// weather.
	Tasks = []string{"overtake", "park", "lane_change", "navigate_junction"}
	// RiskyTasks is the subset of Tasks denied in adverse weather.
	RiskyTasks = map[string]bool{"overtake": true, "navigate_junction": true}
	// LOALevels are the SAE-style autonomy levels of vehicles (1..5).
	LOALevels = []int{1, 2, 3, 4, 5}
	// RegionMinima are the minimum LOA a region may demand.
	RegionMinima = []int{1, 2, 3, 4}
)

// Scenario is one driving-task request in a context.
type Scenario struct {
	Weather   string
	Task      string
	LOA       int // vehicle level of autonomy
	RegionMin int // transient minimum LOA enforced in the region
	// Accept is the ground-truth label.
	Accept bool
}

// groundTruth encodes the target policy:
//
//	deny :- risky task in adverse weather
//	deny :- vehicle LOA below the region minimum
//	accept otherwise
func groundTruth(s Scenario) bool {
	if s.Weather != "clear" && RiskyTasks[s.Task] {
		return false
	}
	if s.LOA < s.RegionMin {
		return false
	}
	return true
}

// Generate samples n scenarios deterministically from the seed.
func Generate(seed uint64, n int) []Scenario {
	rng := workload.NewRNG(seed)
	out := make([]Scenario, n)
	for i := range out {
		s := Scenario{
			Weather:   workload.Pick(rng, Weathers),
			Task:      workload.Pick(rng, Tasks),
			LOA:       workload.Pick(rng, LOALevels),
			RegionMin: workload.Pick(rng, RegionMinima),
		}
		s.Accept = groundTruth(s)
		out[i] = s
	}
	return out
}

// Context renders the scenario — environment plus requested task — as
// ASP facts, the form the flat decision learner consumes.
func (s Scenario) Context() *asp.Program {
	p := s.EnvContext()
	p.Add(asp.NewFact(asp.NewAtom("task", asp.Constant{Name: s.Task})))
	return p
}

// EnvContext renders only the environment facts. This is the context for
// ASG membership and generation, where the task is part of the policy
// string rather than the context (the grammar's task productions emit
// their own task/1 atoms at the parse-tree nodes).
func (s Scenario) EnvContext() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("weather", asp.Constant{Name: s.Weather})),
		asp.NewFact(asp.NewAtom("loa", asp.Integer{Value: s.LOA})),
		asp.NewFact(asp.NewAtom("region_min", asp.Integer{Value: s.RegionMin})),
	)
}

// Features encodes the scenario for the shallow-ML baselines. All
// attributes are categorical, matching what a table-based learner sees.
func (s Scenario) Features() map[string]string {
	return map[string]string{
		"weather":    s.Weather,
		"task":       s.Task,
		"loa":        strconv.Itoa(s.LOA),
		"region_min": strconv.Itoa(s.RegionMin),
	}
}

// Label renders the ground-truth class.
func (s Scenario) Label() string {
	if s.Accept {
		return "accept"
	}
	return "reject"
}

// Allowed implements apps.Case: the ground-truth label.
func (s Scenario) Allowed() bool { return s.Accept }

// Background supplies the adverse-weather ontology — the kind of
// contextual knowledge Section IV.C argues enables safe generalization.
func Background() *asp.Program {
	p, err := asp.Parse(`
		adverse(rain). adverse(fog). adverse(snow).
		risky(overtake). risky(navigate_junction).
	`)
	if err != nil {
		panic(fmt.Sprintf("cav: background: %v", err))
	}
	return p
}

// Bias is the learner's language bias over the CAV context vocabulary.
func Bias() ilasp.Bias {
	return ilasp.Bias{
		Head: []ilasp.ModeAtom{ilasp.M("decision", ilasp.Const("effect"))},
		Body: []ilasp.ModeAtom{
			ilasp.M("weather", ilasp.Const("w")),
			ilasp.M("task", ilasp.Const("t")),
			ilasp.M("adverse", ilasp.Var("w")),
			ilasp.M("weather", ilasp.Var("w")),
			ilasp.M("loa", ilasp.Var("num")),
			ilasp.M("region_min", ilasp.Var("num")),
		},
		Constants: map[string][]asp.Term{
			"effect": {asp.Constant{Name: "deny"}},
			"w":      ilasp.Constants(Weathers...),
			"t":      ilasp.Constants(Tasks...),
		},
		Comparisons: []ilasp.CmpSpec{{
			Type: "num",
			Ops:  []asp.CmpOp{asp.CmpLt},
			// The learner may compare LOA variables with each other via
			// the variable-pair comparisons below; absolute thresholds
			// are also available.
			Values: []asp.Term{asp.Integer{Value: 2}, asp.Integer{Value: 3}, asp.Integer{Value: 4}},
		}},
		VarComparisons: true,
		MaxVars:        2,
		MaxBody:        3,
		RequireBody:    true,
	}
}

// Learned is a trained symbolic CAV policy.
type Learned = apps.Learned[Scenario]

// LearningExamples converts scenarios to learner examples: rejected
// scenarios require the deny decision, accepted ones exclude it.
func LearningExamples(ss []Scenario, weight int) []ilasp.Example {
	return apps.Examples("s", ss, weight)
}

// Learn trains the symbolic policy on scenarios.
func Learn(train []Scenario, opts ilasp.LearnOptions) (*Learned, error) {
	return apps.Learn[Scenario]("cav", Background(), Bias(), LearningExamples(train, 0), opts)
}

// GrammarSource is the CAV policy-language ASG used with the AGENP
// framework: the GPM generates "accept <task>" / "reject <task>"
// policies, and the annotations make "accept" invalid exactly when the
// learned deny conditions hold in the context.
const GrammarSource = `
policy -> "accept" task {
    :- task(T)@2, risky(T), adverse(W), weather(W).
    :- loa(V), region_min(M), V < M.
}
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
task -> "lane_change" { task(lane_change). }
task -> "navigate_junction" { task(navigate_junction). }
`

// Grammar parses the CAV ASG. Note: GrammarSource's first production
// encodes the *ground-truth* semantic conditions; LearnableGrammarSource
// below is the blank initial grammar the framework starts from.
func Grammar() (*asg.Grammar, error) {
	return asg.ParseASG(GrammarSource)
}

// LearnableGrammarSource is the initial GPM: syntax only, semantics to
// be learned.
const LearnableGrammarSource = `
policy -> "accept" task
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
task -> "lane_change" { task(lane_change). }
task -> "navigate_junction" { task(navigate_junction). }
`

// HypothesisSpace builds the ASG hypothesis space for the AGENP
// adaptation loop: deny-style constraints attachable to the accept
// production.
func HypothesisSpace() ([]asg.HypothesisRule, error) {
	srcs := []string{
		":- task(T)@2, risky(T), adverse(W), weather(W).",
		":- loa(V), region_min(M), V < M.",
		":- weather(rain).",
		":- weather(fog).",
		":- weather(snow).",
		":- task(overtake)@2.",
		":- task(navigate_junction)@2.",
	}
	rules := make([]asg.HypothesisRule, len(srcs))
	for i, src := range srcs {
		h, err := asglearn.ParseHypothesisRule(src, 0)
		if err != nil {
			return nil, err
		}
		rules[i] = h
	}
	return rules, nil
}

// ground-truth constraint on risky tasks: a scenario's risky task in
// adverse weather must be denied. Exposed for tests and the experiment
// harness.
const GroundTruthDenyRisky = ":- task(T)@2, risky(T), adverse(W), weather(W)."
