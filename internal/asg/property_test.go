package asg

import (
	"strings"
	"testing"

	"agenp/internal/asp"
	"agenp/internal/cfg"
)

// TestGenerateAcceptsAgreement: for a family of grammars and contexts,
// every generated policy is accepted (soundness of generation) and every
// accepted string in the CFG's bounded language is generated
// (completeness of generation within the bound).
func TestGenerateAcceptsAgreement(t *testing.T) {
	grammars := []string{
		`
policy -> "accept" task { :- task(overtake)@2, weather(rain). }
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`,
		`
plan -> "go" route { :- threat(high). }
route -> "north" { route(north). }
route -> "river" { route(river). :- time(night). }
`,
		`
s -> "x" s { size(N + 1) :- size(N)@2. :- size(M), M > 2. }
s -> ε { size(0). }
`,
	}
	contexts := []string{
		"",
		"weather(rain).",
		"threat(high). time(night).",
		"weather(rain). threat(low). time(night).",
	}
	for gi, src := range grammars {
		g := mustASG(t, src)
		for ci, ctxSrc := range contexts {
			var ctx *asp.Program
			if ctxSrc != "" {
				p, err := asp.Parse(ctxSrc)
				if err != nil {
					t.Fatal(err)
				}
				ctx = p
			}
			gc := g.WithContext(ctx)
			const maxNodes = 8
			generated, err := gc.Generate(GenerateOptions{MaxNodes: maxNodes})
			if err != nil {
				t.Fatalf("grammar %d ctx %d: %v", gi, ci, err)
			}
			genSet := make(map[string]struct{}, len(generated))
			for _, p := range generated {
				genSet[p.Text()] = struct{}{}
				ok, err := gc.Accepts(p.Tokens)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("grammar %d ctx %d: generated %q not accepted", gi, ci, p.Text())
				}
			}
			// Completeness: every CFG string within the bound that the
			// ASG accepts must have been generated.
			for _, s := range gc.CFG.GenerateStrings(cfg.GenerateOptions{MaxNodes: maxNodes}) {
				tokens := strings.Fields(s)
				ok, err := gc.Accepts(tokens)
				if err != nil {
					t.Fatal(err)
				}
				if _, wasGenerated := genSet[s]; ok && !wasGenerated {
					t.Errorf("grammar %d ctx %d: accepted %q missing from generation", gi, ci, s)
				}
				if !ok && s != "" {
					if _, wasGenerated := genSet[s]; wasGenerated {
						t.Errorf("grammar %d ctx %d: rejected %q was generated", gi, ci, s)
					}
				}
			}
		}
	}
}

// TestContextMonotonicityOfConstraints: adding a pure-constraint
// annotation can only shrink the language.
func TestContextMonotonicityOfConstraints(t *testing.T) {
	g := mustASG(t, `
policy -> "a" | "b" | "c"
`)
	all, err := g.Generate(GenerateOptions{MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := asp.ParseRule(":- blocked.")
	if err != nil {
		t.Fatal(err)
	}
	for prodID := 0; prodID < 3; prodID++ {
		constrained, err := g.WithHypothesis([]HypothesisRule{{Rule: r, ProdID: prodID}})
		if err != nil {
			t.Fatal(err)
		}
		// Without blocked in context: language unchanged.
		out, err := constrained.Generate(GenerateOptions{MaxNodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(all) {
			t.Errorf("prod %d: vacuous constraint changed language: %d vs %d", prodID, len(out), len(all))
		}
		// With blocked: exactly one string removed.
		blocked, _ := asp.Parse("blocked.")
		out, err = constrained.WithContext(blocked).Generate(GenerateOptions{MaxNodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(all)-1 {
			t.Errorf("prod %d: blocked context left %d strings, want %d", prodID, len(out), len(all)-1)
		}
	}
}
