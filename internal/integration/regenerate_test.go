package integration

import (
	"reflect"
	"testing"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/apps/resupply"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/core"
)

// TestRegenerateInstallsGeneratedPolicies: over every environment of the
// three ASG apps' domains, Regenerate installs exactly the policies
// Generate returns, and each of them passes Validate in that context, so
// the membership re-check regeneration no longer runs would have
// accepted all of them.
func TestRegenerateInstallsGeneratedPolicies(t *testing.T) {
	cavSpace, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	var cavContexts, shareContexts, resupplyContexts []*asp.Program
	for _, w := range cav.Weathers {
		for _, l := range cav.LOALevels {
			for _, m := range cav.RegionMinima {
				ctx := cav.Scenario{Weather: w, LOA: l, RegionMin: m}.EnvContext()
				ctx.Extend(cav.Background())
				cavContexts = append(cavContexts, ctx)
			}
		}
	}
	for _, tr := range datashare.TrustLevels {
		for _, q := range datashare.QualityLevels {
			shareContexts = append(shareContexts, datashare.Offer{Trust: tr, Quality: q}.EnvContext())
		}
	}
	for _, th := range resupply.Threats {
		for _, e := range resupply.EscortLevels {
			resupplyContexts = append(resupplyContexts, resupply.Mission{Threat: th, Escort: e}.EnvContext())
		}
	}
	cases := []struct {
		name     string
		grammar  string
		space    []asg.HypothesisRule
		maxRules int // subsets of space with at most this many rules
		contexts []*asp.Program
	}{
		{"cav", cav.GrammarSource, nil, 0, cavContexts},
		{"cav-learnable", cav.LearnableGrammarSource, cavSpace, 3, cavContexts},
		{"datashare", datashare.GrammarSource, datashare.HypothesisSpace(), 3, shareContexts},
		{"resupply", resupply.GrammarSource, nil, 0, resupplyContexts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, err := asg.ParseASG(c.grammar)
			if err != nil {
				t.Fatal(err)
			}
			forSubsets(c.space, c.maxRules, func(h []asg.HypothesisRule) {
				g, err := base.WithHypothesis(h)
				if err != nil {
					t.Fatal(err)
				}
				model := core.New(g)
				env := &agenp.StaticContext{}
				ams, err := agenp.New(agenp.Config{Name: c.name, Model: model, Context: env, Interpreter: &agenp.TokenInterpreter{}})
				if err != nil {
					t.Fatal(err)
				}
				for _, ctx := range c.contexts {
					env.Program = ctx
					want, err := model.Generate(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got, rejected, err := ams.Regenerate()
					if err != nil {
						t.Fatal(err)
					}
					installed := ams.Repository().Snapshot().Policies
					if !reflect.DeepEqual(got, want) || rejected != nil || len(installed) != len(want) {
						t.Fatalf("%v in {%s}: installed %v (rejected %v, repository %d), generated %v", h, ctx, got, rejected, len(installed), want)
					}
					for _, p := range got {
						if ok, err := model.Validate(p.Tokens, ctx); !ok || err != nil {
							t.Fatalf("%v in {%s}: generated %q fails Validate (%v)", h, ctx, p.Text(), err)
						}
					}
				}
			})
		})
	}
}

// forSubsets calls visit with every subset of space with at most max
// rules, in index order.
func forSubsets(space []asg.HypothesisRule, max int, visit func([]asg.HypothesisRule)) {
	var chosen []asg.HypothesisRule
	var walk func(from int)
	walk = func(from int) {
		visit(chosen)
		if len(chosen) == max {
			return
		}
		for i := from; i < len(space); i++ {
			chosen = append(chosen, space[i])
			walk(i + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	walk(0)
}
