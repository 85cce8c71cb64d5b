package cav

import (
	"testing"

	"agenp/internal/apps"
	"agenp/internal/asg"
	"agenp/internal/ilasp"
	"agenp/internal/mlbase"
	"agenp/internal/workload"
)

func TestGroundTruth(t *testing.T) {
	tests := []struct {
		name string
		s    Scenario
		want bool
	}{
		{name: "clear overtake ok", s: Scenario{Weather: "clear", Task: "overtake", LOA: 5, RegionMin: 1}, want: true},
		{name: "rain overtake denied", s: Scenario{Weather: "rain", Task: "overtake", LOA: 5, RegionMin: 1}, want: false},
		{name: "rain park ok", s: Scenario{Weather: "rain", Task: "park", LOA: 5, RegionMin: 1}, want: true},
		{name: "low loa denied", s: Scenario{Weather: "clear", Task: "park", LOA: 1, RegionMin: 3}, want: false},
		{name: "snow junction denied", s: Scenario{Weather: "snow", Task: "navigate_junction", LOA: 5, RegionMin: 1}, want: false},
		{name: "fog lane change ok", s: Scenario{Weather: "fog", Task: "lane_change", LOA: 3, RegionMin: 3}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := groundTruth(tt.s); got != tt.want {
				t.Errorf("groundTruth = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGenerateDeterministicAndLabelled(t *testing.T) {
	a := Generate(3, 40)
	b := Generate(3, 40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
		if a[i].Accept != groundTruth(a[i]) {
			t.Fatal("mislabelled scenario")
		}
	}
	// Both classes present.
	accepts := 0
	for _, s := range a {
		if s.Accept {
			accepts++
		}
	}
	if accepts == 0 || accepts == len(a) {
		t.Errorf("degenerate label distribution: %d/%d", accepts, len(a))
	}
}

func TestContextAndFeatures(t *testing.T) {
	s := Scenario{Weather: "rain", Task: "overtake", LOA: 2, RegionMin: 3}
	ctx := s.Context().String()
	for _, want := range []string{"weather(rain).", "task(overtake).", "loa(2).", "region_min(3)."} {
		if !contains(ctx, want) {
			t.Errorf("context missing %q:\n%s", want, ctx)
		}
	}
	f := s.Features()
	if f["weather"] != "rain" || f["loa"] != "2" {
		t.Errorf("features = %v", f)
	}
	if s.Label() != "reject" {
		t.Errorf("label = %q", s.Label())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLearnRecoversPolicy(t *testing.T) {
	scenarios := Generate(7, 260)
	train, test := workload.Split(scenarios, 60)
	learned, err := Learn(train, ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := learned.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.97 {
		t.Errorf("accuracy = %.3f, want >= 0.97 from 60 examples\nhypothesis:\n%s", acc, learned.Result)
	}
	if len(learned.Result.Hypothesis) == 0 || len(learned.Result.Hypothesis) > 3 {
		t.Errorf("hypothesis size = %d", len(learned.Result.Hypothesis))
	}
}

// TestSymbolicSampleEfficiency is the heart of E7: with a small training
// set, the symbolic learner must beat the decision tree, mirroring the
// paper's claim ("fewer examples are required to achieve a greater
// accuracy").
func TestSymbolicSampleEfficiency(t *testing.T) {
	scenarios := Generate(11, 300)
	train, test := workload.Split(scenarios, 25)
	learned, err := Learn(train, ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	symAcc, err := learned.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	tree := mlbase.TrainID3(apps.Instances(train), mlbase.TreeOptions{})
	treeAcc := mlbase.Accuracy(tree, apps.Instances(test))
	if symAcc <= treeAcc {
		t.Errorf("symbolic %.3f should beat tree %.3f at 25 examples", symAcc, treeAcc)
	}
	if symAcc < 0.9 {
		t.Errorf("symbolic accuracy %.3f unexpectedly low", symAcc)
	}
}

func TestGrammarGroundTruthMembership(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	check := func(s Scenario, policyTokens []string, want bool) {
		t.Helper()
		full := s.EnvContext()
		full.Extend(Background())
		ok, err := g.WithContext(full).Accepts(policyTokens)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Errorf("Accepts(%v | %+v) = %v, want %v", policyTokens, s, ok, want)
		}
	}
	rainy := Scenario{Weather: "rain", Task: "overtake", LOA: 5, RegionMin: 1}
	check(rainy, []string{"accept", "overtake"}, false)
	check(rainy, []string{"reject", "overtake"}, true)
	check(rainy, []string{"accept", "park"}, true)
	lowLOA := Scenario{Weather: "clear", Task: "park", LOA: 1, RegionMin: 4}
	check(lowLOA, []string{"accept", "park"}, false)
}

func TestHypothesisSpace(t *testing.T) {
	space, err := HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(space) != 7 {
		t.Fatalf("space size = %d", len(space))
	}
	found := false
	for _, h := range space {
		if asg.DisplayRule(h.Rule) == GroundTruthDenyRisky {
			found = true
		}
	}
	if !found {
		t.Error("ground-truth constraint missing from hypothesis space")
	}
}

func TestBiasContainsGroundTruthRules(t *testing.T) {
	space, err := Bias().Space()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		// LOA rule: vehicle LOA below region minimum.
		"decision(deny) :- loa(V1), region_min(V2), V1 < V2.": false,
		// Risky-task rules via the adverse ontology.
		"decision(deny) :- adverse(V1), task(overtake), weather(V1).": false,
	}
	for _, c := range space {
		if _, ok := want[c.Rule.String()]; ok {
			want[c.Rule.String()] = true
		}
	}
	for rule, found := range want {
		if !found {
			t.Errorf("bias space missing %q (size %d)", rule, len(space))
		}
	}
}
