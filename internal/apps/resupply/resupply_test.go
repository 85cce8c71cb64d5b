package resupply

import (
	"strings"
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
		m    Mission
		want bool
	}{
		{name: "calm day north", m: Mission{Route: "north", Time: "day", Threat: "low", Escort: 1}, want: true},
		{name: "high threat", m: Mission{Route: "north", Time: "day", Threat: "high", Escort: 4}, want: false},
		{name: "river at night", m: Mission{Route: "river", Time: "night", Threat: "low", Escort: 4}, want: false},
		{name: "river by day", m: Mission{Route: "river", Time: "day", Threat: "low", Escort: 1}, want: true},
		{name: "medium threat weak escort", m: Mission{Route: "south", Time: "day", Threat: "medium", Escort: 1}, want: false},
		{name: "medium threat strong escort", m: Mission{Route: "south", Time: "day", Threat: "medium", Escort: 3}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := groundTruth(tt.m); got != tt.want {
				t.Errorf("groundTruth = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGenerateLabelled(t *testing.T) {
	ms := Generate(5, 60)
	approvals := 0
	for _, m := range ms {
		if m.Approve != groundTruth(m) {
			t.Fatal("mislabelled mission")
		}
		if m.Approve {
			approvals++
		}
	}
	if approvals == 0 || approvals == len(ms) {
		t.Errorf("degenerate labels: %d/%d", approvals, len(ms))
	}
}

// TestLearningImprovesWithMissions is E12's shape: accuracy grows as
// missions accumulate ("as time progresses and missions take place the
// learning tasks should become easier and more accurate").
func TestLearningImprovesWithMissions(t *testing.T) {
	all := Generate(21, 400)
	test := all[300:]
	small, err := Learn(all[:6], ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Learn(all[:80], ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	accSmall, err := small.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	accLarge, err := large.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if accLarge < accSmall {
		t.Errorf("accuracy did not improve: %d missions %.3f -> %d missions %.3f", 6, accSmall, 80, accLarge)
	}
	if accLarge < 0.97 {
		t.Errorf("80-mission accuracy = %.3f, want >= 0.97\n%s", accLarge, large.Result)
	}
}

func TestLearnedBeatsTreeOnFewMissions(t *testing.T) {
	all := Generate(9, 300)
	train, test := workload.Split(all, 20)
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
	if symAcc < treeAcc {
		t.Errorf("symbolic %.3f below tree %.3f at 20 missions", symAcc, treeAcc)
	}
}

func TestGrammarMembership(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	calm := Mission{Threat: "low", Escort: 3}
	hot := Mission{Threat: "high", Escort: 3}
	tests := []struct {
		name string
		m    Mission
		plan string
		want bool
	}{
		{name: "calm north day", m: calm, plan: "go north day", want: true},
		{name: "calm river night", m: calm, plan: "go river night", want: false},
		{name: "calm river day", m: calm, plan: "go river day", want: true},
		{name: "high threat anything", m: hot, plan: "go north day", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := g.WithContext(tt.m.EnvContext()).Accepts(strings.Fields(tt.plan))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Accepts(%q) = %v, want %v", tt.plan, got, tt.want)
			}
		})
	}
}

func TestGrammarGeneration(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	calm := Mission{Threat: "low", Escort: 3}
	out, err := g.WithContext(calm.EnvContext()).Generate(asg.GenerateOptions{MaxNodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	// 3 routes x 2 times minus river-night = 5 plans.
	if len(out) != 5 {
		var texts []string
		for _, o := range out {
			texts = append(texts, o.Text())
		}
		t.Errorf("generated %d plans, want 5: %v", len(out), texts)
	}
}

func TestFeaturesAndLabel(t *testing.T) {
	m := Mission{Route: "river", Time: "night", Threat: "medium", Escort: 2, Approve: false}
	f := m.Features()
	if f["route"] != "river" || f["escort"] != "2" {
		t.Errorf("features = %v", f)
	}
	if m.Label() != "deny" {
		t.Errorf("label = %q", m.Label())
	}
	if (Mission{Approve: true}).Label() != "approve" {
		t.Error("approve label")
	}
}
