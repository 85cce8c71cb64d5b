package federated

import (
	"testing"

	"agenp/internal/apps"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
)

func TestGroundTruth(t *testing.T) {
	tests := []struct {
		name string
		u    Update
		want bool
	}{
		{name: "good update", u: Update{Trust: "high", Provenance: "curated", Validation: 5}, want: true},
		{name: "low trust", u: Update{Trust: "low", Provenance: "curated", Validation: 5}, want: false},
		{name: "unknown provenance", u: Update{Trust: "high", Provenance: "unknown", Validation: 5}, want: false},
		{name: "weak validation", u: Update{Trust: "high", Provenance: "curated", Validation: 2}, want: false},
		{name: "medium raw ok", u: Update{Trust: "medium", Provenance: "raw", Validation: 3}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := groundTruth(tt.u); got != tt.want {
				t.Errorf("groundTruth = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGenerateDriftSigns(t *testing.T) {
	us := Generate(4, 100)
	for _, u := range us {
		if u.Incorporate && u.Drift <= 0 {
			t.Fatal("good update with non-positive drift")
		}
		if !u.Incorporate && u.Drift >= 0 {
			t.Fatal("bad update with non-negative drift")
		}
	}
}

func TestLearnRecoversFusionPolicy(t *testing.T) {
	all := Generate(31, 360)
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
		t.Errorf("accuracy = %.3f\n%s", acc, learned.Result)
	}
}

// TestSimulationPolicyProtectsModel: a party filtering updates through
// the learned policy ends with a better model than one accepting
// everything, and close to the oracle.
func TestSimulationPolicyProtectsModel(t *testing.T) {
	history := Generate(7, 80)
	future := Generate(8, 120)
	learned, err := Learn(history[:40], ilasp.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPolicy, traj, err := Simulate(future, learned.Predict)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll, _, err := Simulate(future, AcceptAll())
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := Simulate(future, Oracle())
	if err != nil {
		t.Fatal(err)
	}
	if withPolicy <= acceptAll {
		t.Errorf("policy %.2f should beat accept-all %.2f", withPolicy, acceptAll)
	}
	if withPolicy < 0.9*oracle {
		t.Errorf("policy %.2f too far from oracle %.2f", withPolicy, oracle)
	}
	if len(traj) != len(future) {
		t.Errorf("trajectory length = %d", len(traj))
	}
}

func TestGatesAndInstances(t *testing.T) {
	u := Update{Trust: "low", Provenance: "raw", Validation: 1, Incorporate: false}
	if ok, _ := AcceptAll()(u); !ok {
		t.Error("AcceptAll rejected")
	}
	if ok, _ := Oracle()(u); ok {
		t.Error("Oracle admitted a bad update")
	}
	ins := apps.Instances([]Update{u})
	if ins[0].Label != "discard" || ins[0].Features["validation"] != "1" {
		t.Errorf("instance = %+v", ins[0])
	}
}
