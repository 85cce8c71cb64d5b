// CAV example (paper Section IV.A): a connected autonomous vehicle runs
// the full AGENP loop — the PReP generates driving-task policies from
// the GPM, the PDP/PEP serve requests and monitor outcomes, operator
// feedback feeds the PAdaP, and the model is adapted so the bad policies
// disappear. It then compares the symbolic learner against a decision
// tree on the same scenarios (the paper's sample-efficiency claim).
package main

import (
	"fmt"
	"log"

	"agenp"
	"agenp/internal/apps"
	"agenp/internal/apps/cav"
	"agenp/internal/ilasp"
	"agenp/internal/mlbase"
	"agenp/internal/workload"
	"agenp/internal/xacml"

	framework "agenp/internal/agenp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Part 1: the AGENP adaptation loop ---
	model, err := agenp.ParseGPM(cav.LearnableGrammarSource)
	if err != nil {
		return err
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		return err
	}
	rainy := cav.Scenario{Weather: "rain", LOA: 5, RegionMin: 1}
	ctx := rainy.EnvContext()
	ctx.Extend(cav.Background())

	ams, err := agenp.NewAMS(framework.Config{
		Name:    "cav-1",
		Model:   model,
		Space:   space,
		Context: &framework.StaticContext{Program: ctx},
		Interpreter: &framework.TokenInterpreter{
			PermitVerbs: []string{"accept"},
			DenyVerbs:   []string{"reject"},
		},
	})
	if err != nil {
		return err
	}
	if _, _, err := ams.Regenerate(); err != nil {
		return err
	}
	fmt.Printf("initial repository: %d policies\n", ams.Repository().Len())

	// Operator feedback: accepting an overtake in rain was wrong.
	for i := 0; i < 3; i++ {
		if _, err := ams.Observe(agenp.Feedback{
			Tokens: []string{"accept", "overtake"}, Context: ctx, Valid: false,
		}); err != nil {
			return err
		}
	}
	fmt.Printf("after adaptation: %d model versions, %d policies\n",
		ams.Models().Version(), ams.Repository().Len())
	d, pid, err := ams.Decide(xacml.NewRequest().Set(xacml.Action, "id", xacml.S("overtake")))
	if err != nil {
		return err
	}
	fmt.Printf("overtake request in rain now decides %s (policy %s)\n", d, pid)

	// --- Part 2: symbolic vs shallow ML on the same task ---
	scenarios := cav.Generate(7, 250)
	train, test := workload.Split(scenarios, 25)
	learned, err := cav.Learn(train, ilasp.LearnOptions{})
	if err != nil {
		return err
	}
	symAcc, err := learned.Accuracy(test)
	if err != nil {
		return err
	}
	tree := mlbase.TrainID3(apps.Instances(train), mlbase.TreeOptions{})
	treeAcc := mlbase.Accuracy(tree, apps.Instances(test))
	fmt.Printf("from %d examples: symbolic %.3f vs decision tree %.3f\n", len(train), symAcc, treeAcc)
	fmt.Println("learned driving policy rules:")
	for _, r := range learned.Result.Hypothesis {
		fmt.Printf("  %s\n", r.String())
	}
	return nil
}
