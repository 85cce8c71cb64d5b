// Package federated implements the federated-learning application of
// the paper (Section IV.E): coalition members exchange model updates
// instead of raw data, and each receiving party needs policies deciding
// whether to incorporate a partner's update — decisions that depend on
// partner trust, the update's provenance and its validation metrics.
//
// The package pairs a generative policy (learned from past fusion
// outcomes) with a small federated-averaging simulation, so experiment
// E11 can show the accuracy trajectory of a party that filters updates
// through its learned policy versus one that accepts everything.
package federated

import (
	"strconv"

	"agenp/internal/apps"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

// Domain constants.
var (
	// TrustLevels order partner trust.
	TrustLevels = []string{"low", "medium", "high"}
	// Provenances classify how an update's training data was curated.
	Provenances = []string{"curated", "raw", "unknown"}
	// ValidationScores grade the update on a held-out set, 1..5.
	ValidationScores = []int{1, 2, 3, 4, 5}
)

// Update is one offered model update with its fusion outcome.
type Update struct {
	Trust      string
	Provenance string
	Validation int
	// Incorporate is the ground-truth label: whether fusing this update
	// helped in hindsight.
	Incorporate bool
	// Drift is the true quality effect used by the fusion simulation:
	// positive improves the receiver's model, negative degrades it.
	Drift float64
}

// groundTruth encodes the fusion policy:
//
//	deny :- partner trust is low
//	deny :- unknown provenance
//	deny :- validation score below 3
//	incorporate otherwise
func groundTruth(u Update) bool {
	if u.Trust == "low" {
		return false
	}
	if u.Provenance == "unknown" {
		return false
	}
	if u.Validation < 3 {
		return false
	}
	return true
}

// Generate samples n updates deterministically. Good updates carry
// positive drift, bad ones negative drift (with noise), so the fusion
// simulation rewards correct policies.
func Generate(seed uint64, n int) []Update {
	rng := workload.NewRNG(seed)
	out := make([]Update, n)
	for i := range out {
		u := Update{
			Trust:      workload.Pick(rng, TrustLevels),
			Provenance: workload.Pick(rng, Provenances),
			Validation: workload.Pick(rng, ValidationScores),
		}
		u.Incorporate = groundTruth(u)
		if u.Incorporate {
			u.Drift = 0.5 + rng.Float64() // +0.5 .. +1.5
		} else {
			u.Drift = -1.5 + rng.Float64() // -1.5 .. -0.5
		}
		out[i] = u
	}
	return out
}

// Context renders the update as ASP facts.
func (u Update) Context() *asp.Program {
	return asp.NewProgram(
		asp.NewFact(asp.NewAtom("trust", asp.Constant{Name: u.Trust})),
		asp.NewFact(asp.NewAtom("provenance", asp.Constant{Name: u.Provenance})),
		asp.NewFact(asp.NewAtom("validation", asp.Integer{Value: u.Validation})),
	)
}

// Features encodes the update for the ML baselines.
func (u Update) Features() map[string]string {
	return map[string]string{
		"trust":      u.Trust,
		"provenance": u.Provenance,
		"validation": strconv.Itoa(u.Validation),
	}
}

// Label renders the class.
func (u Update) Label() string {
	if u.Incorporate {
		return "incorporate"
	}
	return "discard"
}

// Allowed implements apps.Case: the ground-truth label.
func (u Update) Allowed() bool { return u.Incorporate }

// Bias is the learner's language bias for fusion policies.
func Bias() ilasp.Bias {
	return ilasp.Bias{
		Head: []ilasp.ModeAtom{ilasp.M("decision", ilasp.Const("effect"))},
		Body: []ilasp.ModeAtom{
			ilasp.M("trust", ilasp.Const("trust")),
			ilasp.M("provenance", ilasp.Const("prov")),
			ilasp.M("validation", ilasp.Var("num")),
		},
		Constants: map[string][]asp.Term{
			"effect": {asp.Constant{Name: "deny"}},
			"trust":  ilasp.Constants(TrustLevels...),
			"prov":   ilasp.Constants(Provenances...),
		},
		Comparisons: []ilasp.CmpSpec{{
			Type:   "num",
			Ops:    []asp.CmpOp{asp.CmpLt},
			Values: []asp.Term{asp.Integer{Value: 2}, asp.Integer{Value: 3}, asp.Integer{Value: 4}},
		}},
		MaxVars:     1,
		MaxBody:     2,
		RequireBody: true,
	}
}

// Learned is a trained fusion policy.
type Learned = apps.Learned[Update]

// LearningExamples converts updates into learner examples.
func LearningExamples(us []Update, weight int) []ilasp.Example {
	return apps.Examples("u", us, weight)
}

// Learn trains the symbolic fusion policy.
func Learn(train []Update, opts ilasp.LearnOptions) (*Learned, error) {
	return apps.Learn[Update]("federated", nil, Bias(), LearningExamples(train, 0), opts)
}

// Gate decides whether to fuse an update. AcceptAll and Oracle are the
// baselines; a learned policy's Predict is one too.
type Gate func(u Update) (bool, error)

// AcceptAll admits every update.
func AcceptAll() Gate {
	return func(Update) (bool, error) { return true, nil }
}

// Oracle admits exactly the ground-truth-good updates.
func Oracle() Gate {
	return func(u Update) (bool, error) { return u.Incorporate, nil }
}

// Simulate runs the fusion loop: the receiver's model quality starts at
// zero and moves by each admitted update's drift. It returns the final
// quality and the per-round trajectory.
func Simulate(updates []Update, admit Gate) (final float64, trajectory []float64, err error) {
	quality := 0.0
	trajectory = make([]float64, 0, len(updates))
	for _, u := range updates {
		ok, err := admit(u)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			quality += u.Drift
		}
		trajectory = append(trajectory, quality)
	}
	return quality, trajectory, nil
}
