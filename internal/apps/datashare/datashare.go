// Package datashare implements the coalition data-sharing application
// of the paper (Section IV.D, after Verma et al.): partners with
// different trust levels offer data items of varying type, value and
// quality, and each party needs generative policies deciding what may be
// shared with (or accepted from) whom. Policy conditions are Boolean
// combinations over item attributes — including threshold tests the
// paper highlights ("testing whether the value of some data items is
// above a certain threshold") — which makes manual specification
// infeasible and learning attractive (experiment E11).
package datashare

import (
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
	// TrustLevels order partner trust from least to most trusted.
	TrustLevels = []string{"low", "medium", "high"}
	// DataTypes are the data modalities of the ISR scenario.
	DataTypes = []string{"image", "video", "sigint", "document"}
	// QualityLevels grade data quality 1..5.
	QualityLevels = []int{1, 2, 3, 4, 5}
)

// Offer is one data-sharing decision instance: a partner offers (or
// requests) a data item.
type Offer struct {
	Trust   string // partner trust level
	Type    string // data type
	Quality int    // data quality 1..5
	// Share is the ground-truth label.
	Share bool
}

// groundTruth encodes the target policy:
//
//	deny :- partner trust is low
//	deny :- sigint data to a partner that is not fully trusted
//	deny :- quality below 3 (not worth the bandwidth/risk)
//	share otherwise
func groundTruth(o Offer) bool {
	if o.Trust == "low" {
		return false
	}
	if o.Type == "sigint" && o.Trust != "high" {
		return false
	}
	if o.Quality < 3 {
		return false
	}
	return true
}

// Generate samples n offers deterministically.
func Generate(seed uint64, n int) []Offer {
	rng := workload.NewRNG(seed)
	out := make([]Offer, n)
	for i := range out {
		o := Offer{
			Trust:   workload.Pick(rng, TrustLevels),
			Type:    workload.Pick(rng, DataTypes),
			Quality: workload.Pick(rng, QualityLevels),
		}
		o.Share = groundTruth(o)
		out[i] = o
	}
	return out
}

// Context renders the offer as ASP facts.
func (o Offer) Context() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("trust", asp.Constant{Name: o.Trust})),
		asp.NewFact(asp.NewAtom("dtype", asp.Constant{Name: o.Type})),
		asp.NewFact(asp.NewAtom("quality", asp.Integer{Value: o.Quality})),
	)
}

// EnvContext renders the partner/item environment without the data type
// (which the ASG policy string carries).
func (o Offer) EnvContext() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("trust", asp.Constant{Name: o.Trust})),
		asp.NewFact(asp.NewAtom("quality", asp.Integer{Value: o.Quality})),
	)
}

// Features encodes the offer for the ML baselines.
func (o Offer) Features() map[string]string {
	return map[string]string{
		"trust":   o.Trust,
		"type":    o.Type,
		"quality": strconv.Itoa(o.Quality),
	}
}

// Label renders the class.
func (o Offer) Label() string {
	if o.Share {
		return "share"
	}
	return "withhold"
}

// Allowed implements apps.Case: the ground-truth label.
func (o Offer) Allowed() bool { return o.Share }

// Bias is the learner's language bias for sharing policies.
func Bias() ilasp.Bias {
	return ilasp.Bias{
		Head: []ilasp.ModeAtom{ilasp.M("decision", ilasp.Const("effect"))},
		Body: []ilasp.ModeAtom{
			ilasp.M("trust", ilasp.Const("trust")),
			ilasp.M("dtype", ilasp.Const("dtype")),
			ilasp.M("quality", ilasp.Var("num")),
		},
		Constants: map[string][]asp.Term{
			"effect": {asp.Constant{Name: "deny"}},
			"trust":  ilasp.Constants(TrustLevels...),
			"dtype":  ilasp.Constants(DataTypes...),
		},
		Comparisons: []ilasp.CmpSpec{{
			Type:   "num",
			Ops:    []asp.CmpOp{asp.CmpLt},
			Values: []asp.Term{asp.Integer{Value: 2}, asp.Integer{Value: 3}, asp.Integer{Value: 4}},
		}},
		AllowNegation: true,
		MaxVars:       1,
		MaxBody:       2,
		RequireBody:   true,
	}
}

// Learned is a trained sharing policy.
type Learned = apps.Learned[Offer]

// LearningExamples converts offers into learner examples.
func LearningExamples(os []Offer, weight int) []ilasp.Example {
	return apps.Examples("o", os, weight)
}

// Learn trains the symbolic sharing policy.
func Learn(train []Offer, opts ilasp.LearnOptions) (*Learned, error) {
	return apps.Learn[Offer]("datashare", nil, Bias(), LearningExamples(train, 0), opts)
}

// GrammarSource is the data-sharing policy language for the AGENP
// framework and the coalition simulation: "share <type>" / "withhold
// <type>" policies vetted against partner trust and data quality.
const GrammarSource = `
policy -> "share" dtype {
    :- trust(low).
    :- dtype(sigint)@2, not trust(high).
    :- quality(Q), Q < 3.
}
policy -> "withhold" dtype
dtype -> "image" { dtype(image). }
dtype -> "video" { dtype(video). }
dtype -> "sigint" { dtype(sigint). }
dtype -> "document" { dtype(document). }
`

// Grammar parses the data-sharing ASG.
func Grammar() (*asg.Grammar, error) {
	return asg.ParseASG(GrammarSource)
}

// HypothesisSpace is the refinement space a coalition party's PAdaP may
// learn from when operator feedback contradicts the generated sharing
// policies: candidate constraints tightening the share production
// (production 0; @2 references its dtype child).
func HypothesisSpace() []asg.HypothesisRule {
	return []asg.HypothesisRule{
		asglearn.MustParseHypothesisRule(":- dtype(sigint)@2.", 0),
		asglearn.MustParseHypothesisRule(":- dtype(video)@2, not trust(high).", 0),
		asglearn.MustParseHypothesisRule(":- quality(Q), Q < 4.", 0),
	}
}
