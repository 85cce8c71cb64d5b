// Package resupply implements the logistical-resupply application of
// the paper (Section IV.B, from the DAIS-ITA scenario): a coalition
// convoy must choose route and timing under threat, weather and escort
// conditions. Policies are learned from mission outcomes; as missions
// accumulate, "the learning tasks become easier and more accurate"
// (experiment E12 plots accuracy against completed missions).
package resupply

import (
	"strconv"

	"agenp/internal/apps"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// Domain constants.
var (
	// Routes are the route options of the scenario.
	Routes = []string{"north", "south", "river"}
	// Times are mission windows.
	Times = []string{"day", "night"}
	// Threats are route threat assessments.
	Threats = []string{"low", "medium", "high"}
	// EscortLevels are escort strengths (1..4).
	EscortLevels = []int{1, 2, 3, 4}
)

// Mission is one resupply mission plan with its outcome label.
type Mission struct {
	Route  string
	Time   string
	Threat string
	Escort int
	// Approve is the ground-truth label: whether the plan is acceptable
	// under the coalition's risk appetite.
	Approve bool
}

// groundTruth encodes the target policy:
//
//	deny :- threat is high
//	deny :- river route at night
//	deny :- medium threat with escort below 2
//	approve otherwise
func groundTruth(m Mission) bool {
	if m.Threat == "high" {
		return false
	}
	if m.Route == "river" && m.Time == "night" {
		return false
	}
	if m.Threat == "medium" && m.Escort < 2 {
		return false
	}
	return true
}

// Generate samples n missions deterministically.
func Generate(seed uint64, n int) []Mission {
	rng := workload.NewRNG(seed)
	out := make([]Mission, n)
	for i := range out {
		m := Mission{
			Route:  workload.Pick(rng, Routes),
			Time:   workload.Pick(rng, Times),
			Threat: workload.Pick(rng, Threats),
			Escort: workload.Pick(rng, EscortLevels),
		}
		m.Approve = groundTruth(m)
		out[i] = m
	}
	return out
}

// EnvContext renders only the environment facts (threat, escort) — the
// context for ASG membership/generation, where route and timing are part
// of the plan string.
func (m Mission) EnvContext() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("threat", asp.Constant{Name: m.Threat})),
		asp.NewFact(asp.NewAtom("escort", asp.Integer{Value: m.Escort})),
	)
}

// Context renders the mission as ASP facts.
func (m Mission) Context() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("route", asp.Constant{Name: m.Route})),
		asp.NewFact(asp.NewAtom("time", asp.Constant{Name: m.Time})),
		asp.NewFact(asp.NewAtom("threat", asp.Constant{Name: m.Threat})),
		asp.NewFact(asp.NewAtom("escort", asp.Integer{Value: m.Escort})),
	)
}

// Features encodes the mission for the ML baselines.
func (m Mission) Features() map[string]string {
	return map[string]string{
		"route":  m.Route,
		"time":   m.Time,
		"threat": m.Threat,
		"escort": strconv.Itoa(m.Escort),
	}
}

// Label renders the class.
func (m Mission) Label() string {
	if m.Approve {
		return "approve"
	}
	return "deny"
}

// Allowed implements apps.Case: the ground-truth label.
func (m Mission) Allowed() bool { return m.Approve }

// Bias is the learner's language bias for mission policies.
func Bias() ilasp.Bias {
	return ilasp.Bias{
		Head: []ilasp.ModeAtom{ilasp.M("decision", ilasp.Const("effect"))},
		Body: []ilasp.ModeAtom{
			ilasp.M("route", ilasp.Const("route")),
			ilasp.M("time", ilasp.Const("time")),
			ilasp.M("threat", ilasp.Const("threat")),
			ilasp.M("escort", ilasp.Var("num")),
		},
		Constants: map[string][]asp.Term{
			"effect": {asp.Constant{Name: "deny"}},
			"route":  ilasp.Constants(Routes...),
			"time":   ilasp.Constants(Times...),
			"threat": ilasp.Constants(Threats...),
		},
		Comparisons: []ilasp.CmpSpec{{
			Type:   "num",
			Ops:    []asp.CmpOp{asp.CmpLt},
			Values: []asp.Term{asp.Integer{Value: 2}, asp.Integer{Value: 3}},
		}},
		MaxVars:     1,
		MaxBody:     3,
		RequireBody: true,
	}
}

// Learned is a trained mission policy.
type Learned = apps.Learned[Mission]

// LearningExamples converts missions into learner examples.
func LearningExamples(ms []Mission, weight int) []ilasp.Example {
	return apps.Examples("m", ms, weight)
}

// Learn trains the symbolic mission policy.
func Learn(train []Mission, opts ilasp.LearnOptions) (*Learned, error) {
	return apps.Learn[Mission]("resupply", nil, Bias(), LearningExamples(train, 0), opts)
}

// GrammarSource is the resupply policy language for the AGENP framework:
// convoy plans "go <route> <time>" vetted against the context.
const GrammarSource = `
plan -> "go" route timing {
    :- threat(high).
    :- route(river)@2, time(night)@3.
}
route -> "north" { route(north). }
route -> "south" { route(south). }
route -> "river" { route(river). }
timing -> "day" { time(day). }
timing -> "night" { time(night). }
`

// Grammar parses the resupply ASG.
func Grammar() (*asg.Grammar, error) {
	return asg.ParseASG(GrammarSource)
}
