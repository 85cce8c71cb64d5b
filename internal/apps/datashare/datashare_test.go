package datashare

import (
	"strings"
	"testing"

	"agenp/internal/apps"
	"agenp/internal/asg"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

func TestGroundTruth(t *testing.T) {
	tests := []struct {
		name string
		o    Offer
		want bool
	}{
		{name: "trusted good image", o: Offer{Trust: "high", Type: "image", Quality: 4}, want: true},
		{name: "low trust", o: Offer{Trust: "low", Type: "image", Quality: 5}, want: false},
		{name: "sigint to medium", o: Offer{Trust: "medium", Type: "sigint", Quality: 5}, want: false},
		{name: "sigint to high", o: Offer{Trust: "high", Type: "sigint", Quality: 5}, want: true},
		{name: "poor quality", o: Offer{Trust: "high", Type: "video", Quality: 1}, want: false},
		{name: "medium trust document", o: Offer{Trust: "medium", Type: "document", Quality: 3}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := groundTruth(tt.o); got != tt.want {
				t.Errorf("groundTruth = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLearnRecoversSharingPolicy(t *testing.T) {
	all := Generate(13, 360)
	train, test := workload.Split(all, 60)
	learned, err := Learn(train, ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := learned.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.97 {
		t.Errorf("accuracy = %.3f from 60 offers\n%s", acc, learned.Result)
	}
	// The trust exception must be expressible: look for a negated or
	// trust-specific sigint rule in the hypothesis.
	found := false
	for _, r := range learned.Result.Hypothesis {
		s := r.String()
		if strings.Contains(s, "sigint") {
			found = true
		}
	}
	if !found {
		t.Errorf("no sigint rule learned:\n%s", learned.Result)
	}
}

func TestGrammarContextDependentSharing(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		o      Offer
		policy string
		want   bool
	}{
		{name: "high trust shares sigint", o: Offer{Trust: "high", Quality: 5}, policy: "share sigint", want: true},
		{name: "medium trust cannot share sigint", o: Offer{Trust: "medium", Quality: 5}, policy: "share sigint", want: false},
		{name: "medium trust shares images", o: Offer{Trust: "medium", Quality: 5}, policy: "share image", want: true},
		{name: "low trust shares nothing", o: Offer{Trust: "low", Quality: 5}, policy: "share image", want: false},
		{name: "poor quality withheld", o: Offer{Trust: "high", Quality: 1}, policy: "share image", want: false},
		{name: "withhold always valid", o: Offer{Trust: "low", Quality: 1}, policy: "withhold sigint", want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := g.WithContext(tt.o.EnvContext()).Accepts(strings.Fields(tt.policy))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Accepts(%q) = %v, want %v", tt.policy, got, tt.want)
			}
		})
	}
}

func TestGrammarGenerationPerTrustLevel(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, trust := range TrustLevels {
		o := Offer{Trust: trust, Quality: 5}
		out, err := g.WithContext(o.EnvContext()).Generate(asg.GenerateOptions{MaxNodes: 10})
		if err != nil {
			t.Fatal(err)
		}
		counts[trust] = len(out)
	}
	// 4 withhold policies always; shares: low 0, medium 3, high 4.
	if counts["low"] != 4 || counts["medium"] != 7 || counts["high"] != 8 {
		t.Errorf("generated policy counts = %v", counts)
	}
}

func TestInstancesShape(t *testing.T) {
	os := Generate(2, 10)
	ins := apps.Instances(os)
	if len(ins) != 10 {
		t.Fatal("wrong size")
	}
	if ins[0].Features["trust"] == "" || (ins[0].Label != "share" && ins[0].Label != "withhold") {
		t.Errorf("instance = %+v", ins[0])
	}
}
