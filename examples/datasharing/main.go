// Data-sharing example (paper Sections IV.D and IV.E): learn sharing
// policies from labelled offers, share generated policies across a
// two-party coalition over an in-process bus (CASWiki style), and gate a
// federated-learning fusion loop with the learned policy.
package main

import (
	"fmt"
	"log"
	"time"

	"agenp/internal/apps/datashare"
	"agenp/internal/apps/federated"
	"agenp/internal/asp"
	"agenp/internal/coalition"
	"agenp/internal/core"
	"agenp/internal/ilasp"

	framework "agenp/internal/agenp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Learn the sharing policy from labelled offers.
	offers := datashare.Generate(13, 260)
	learned, err := datashare.Learn(offers[:60], ilasp.LearnOptions{})
	if err != nil {
		return err
	}
	acc, err := learned.Accuracy(offers[60:])
	if err != nil {
		return err
	}
	fmt.Printf("learned sharing policy (test accuracy %.3f):\n", acc)
	for _, r := range learned.Result.Hypothesis {
		fmt.Printf("  %s\n", r.String())
	}

	// Coalition sharing: a permissive party's generated policies are
	// vetted by a stricter partner's PCP.
	bus := coalition.NewBus()
	defer func() { _ = bus.Close() }()
	mkParty := func(name, ctxSrc string) (*coalition.Party, error) {
		model, err := core.ParseGPM(datashare.GrammarSource)
		if err != nil {
			return nil, err
		}
		ctx, err := asp.Parse(ctxSrc)
		if err != nil {
			return nil, err
		}
		ams, err := framework.New(framework.Config{
			Name:    name,
			Model:   model,
			Context: &framework.StaticContext{Program: ctx},
			Interpreter: &framework.TokenInterpreter{
				PermitVerbs: []string{"share"},
				DenyVerbs:   []string{"withhold"},
			},
		})
		if err != nil {
			return nil, err
		}
		return coalition.Join(ams, bus)
	}
	alpha, err := mkParty("alpha", "trust(high). quality(5).")
	if err != nil {
		return err
	}
	defer alpha.Leave()
	bravo, err := mkParty("bravo", "trust(medium). quality(5).")
	if err != nil {
		return err
	}
	defer bravo.Leave()
	if _, _, err := alpha.AMS.Regenerate(); err != nil {
		return err
	}
	if err := alpha.SharePolicies(); err != nil {
		return err
	}
	total := alpha.AMS.Repository().Len()
	for deadline := time.Now().Add(3 * time.Second); ; {
		i, r := bravo.ImportStats()
		if i+r == total || time.Now().After(deadline) {
			fmt.Printf("bravo adopted %d and rejected %d of alpha's %d policies\n", i, r, total)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Federated learning: gate model updates with a learned policy.
	history := federated.Generate(7, 60)
	future := federated.Generate(8, 120)
	gate, err := federated.Learn(history, ilasp.LearnOptions{})
	if err != nil {
		return err
	}
	withPolicy, _, err := federated.Simulate(future, gate.Predict)
	if err != nil {
		return err
	}
	acceptAll, _, err := federated.Simulate(future, federated.AcceptAll())
	if err != nil {
		return err
	}
	oracle, _, err := federated.Simulate(future, federated.Oracle())
	if err != nil {
		return err
	}
	fmt.Printf("federated fusion quality after %d rounds: accept-all %.2f, learned policy %.2f, oracle %.2f\n",
		len(future), acceptAll, withPolicy, oracle)
	return nil
}
