package main

import (
	"testing"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/policy"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

const (
	gtRisky = ":- task(T)@2, risky(T), adverse(W), weather(W)."
	gtLOA   = ":- loa(V), region_min(M), V < M."
)

// generated lists the policy texts a model generates in a context.
func generated(t *testing.T, m *core.GPM, ctx *asp.Program) []string {
	t.Helper()
	ps, err := m.Generate(ctx)
	if err != nil {
		t.Fatalf("generating under %s: %v", ctx, err)
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Text()
	}
	return out
}

// The hand-written CAV table agrees with generation from the
// ground-truth grammar and from the syntax-only grammar extended by each
// space rule, on every context of the domain.
func TestCAVTableMatchesGeneration(t *testing.T) {
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(space) != len(cavRules) {
		t.Fatalf("space has %d rules, table %d", len(space), len(cavRules))
	}
	initial, err := asg.ParseASG(cav.LearnableGrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		gpm   *core.GPM
		rules []string
	}
	truth, err := core.ParseGPM(cav.GrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	if got := learnedRules(truth); len(got) != 2 || got[0] != gtRisky || got[1] != gtLOA {
		t.Fatalf("ground-truth grammar rules = %q", got)
	}
	models := []model{{truth, []string{gtRisky, gtLOA}}}
	for _, h := range space {
		key := asg.DisplayRule(h.Rule)
		mean, ok := cavRules[key]
		if !ok {
			t.Fatalf("space rule %q missing from the table", key)
		}
		if mean.Cost != h.Cost() {
			t.Errorf("%q: table cost %d, rule cost %d", key, mean.Cost, h.Cost())
		}
		g, err := initial.WithHypothesis([]asg.HypothesisRule{h})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{core.New(g), []string{key}})
	}
	for _, m := range models {
		for _, e := range cavDomain() {
			ctx := cavContext(e)
			got := generated(t, m.gpm, ctx)
			want, err := cavExpected(cavRules, m.rules, e)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPolicySet(got, want); err != nil {
				t.Errorf("rules %q in %+v: %v", m.rules, e, err)
			}
		}
	}
}

func TestDatashareTableMatchesGeneration(t *testing.T) {
	m, err := core.ParseGPM(datashare.GrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range datashare.TrustLevels {
		for _, q := range datashare.QualityLevels {
			e := shareEnv{Trust: tr, Quality: q}
			ctx := datashare.Offer{Trust: tr, Quality: q}.EnvContext()
			got := generated(t, m, ctx)
			if err := checkPolicySet(got, shareExpected(shareValid, e)); err != nil {
				t.Errorf("%+v: %v", e, err)
			}
		}
	}
}

// A table with one flipped entry no longer matches generation.
func TestRegenCheckRejectsFlippedTableEntry(t *testing.T) {
	const rule = ":- weather(rain)."
	flipped := make(map[string]cavMeaning, len(cavRules))
	for k, v := range cavRules {
		flipped[k] = v
	}
	at := cavEnv{Weather: "rain", LOA: 3, RegionMin: 2}
	orig := cavRules[rule]
	flipped[rule] = cavMeaning{Cost: orig.Cost, Fires: func(e cavEnv, task string) bool {
		if e == at && task == "park" {
			return !orig.Fires(e, task)
		}
		return orig.Fires(e, task)
	}}
	initial, err := asg.ParseASG(cav.LearnableGrammarSource)
	if err != nil {
		t.Fatal(err)
	}
	g, err := initial.WithHypothesis([]asg.HypothesisRule{asgRule(t, rule)})
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(g)
	ctx := cavContext(at)
	got := generated(t, m, ctx)
	want, err := cavExpected(flipped, []string{rule}, at)
	if err != nil {
		t.Fatal(err)
	}
	if checkPolicySet(got, want) == nil {
		t.Fatal("regeneration check accepted a flipped table entry")
	}
}

func asgRule(t *testing.T, key string) asg.HypothesisRule {
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range space {
		if asg.DisplayRule(h.Rule) == key {
			return h
		}
	}
	t.Fatalf("no space rule %q", key)
	return asg.HypothesisRule{}
}

func TestAdaptationCheck(t *testing.T) {
	rain := cavEnv{Weather: "rain", LOA: 5, RegionMin: 1}
	window := []cavExample{
		{Env: rain, Task: "overtake", Valid: false},
		{Env: rain, Task: "navigate_junction", Valid: false},
		{Env: cavEnv{Weather: "clear", LOA: 5, RegionMin: 1}, Task: "overtake", Valid: true},
	}
	// Cheapest covering answer: reject everything in rain (cost 1).
	if err := checkAdaptation(cavRules, nil, []string{":- weather(rain)."}, window, 3); err != nil {
		t.Fatalf("minimal adaptation rejected: %v", err)
	}
	if checkAdaptation(cavRules, nil, []string{gtRisky}, window, 3) == nil {
		t.Error("accepted a covering but non-minimal adaptation")
	}
	if checkAdaptation(cavRules, nil, []string{":- weather(fog)."}, window, 3) == nil {
		t.Error("accepted an adaptation that does not cover the window")
	}
	if checkAdaptation(cavRules, nil, []string{":- weather(hail)."}, window, 3) == nil {
		t.Error("accepted a rule outside the hypothesis space")
	}
}

func TestShareChecksRejectWrongAnswers(t *testing.T) {
	lead := shareEnv{Trust: "high", Quality: 5}
	peer := shareEnv{Trust: "medium", Quality: 4}
	var shared, adopted, peerRepo []string
	for p := range shareExpected(shareValid, lead) {
		shared = append(shared, p)
	}
	for p := range shareExpected(shareValid, peer) {
		peerRepo = append(peerRepo, p)
		adopted = append(adopted, p) // the peer's set is inside the lead's
	}
	if err := checkAdopted(shared, adopted, peerRepo, shareValid, peer); err != nil {
		t.Fatalf("correct adoption rejected: %v", err)
	}
	if checkAdopted(shared, append(adopted, "share sigint"), peerRepo, shareValid, peer) == nil {
		t.Error("accepted one extra adopted policy")
	}
	if checkAdopted(shared, adopted[1:], peerRepo, shareValid, peer) == nil {
		t.Error("accepted one missing adoption")
	}

	repo := []policy.Policy{
		{ID: "share_image", Tokens: []string{"share", "image"}},
		{ID: "withhold_video", Tokens: []string{"withhold", "video"}},
	}
	reqs := []xacml.Request{
		xacml.NewRequest().Set(xacml.Action, "id", xacml.S("image")),
		xacml.NewRequest().Set(xacml.Action, "id", xacml.S("video")),
		xacml.NewRequest().Set(xacml.Action, "id", xacml.S("exfiltrate")),
	}
	in := shareInterpreter()
	got := []xacml.Decision{xacml.DecisionPermit, xacml.DecisionDeny, xacml.DecisionNotApplicable}
	if n, err := checkDecisions(got, reqs, in, repo); err != nil || n != 3 {
		t.Fatalf("correct decisions: agree=%d err=%v", n, err)
	}
	got[1] = xacml.DecisionPermit
	if n, err := checkDecisions(got, reqs, in, repo); err == nil || n != 2 {
		t.Errorf("one flipped decision: agree=%d err=%v", n, err)
	}
}

func TestLearnChecksRejectWrongAnswers(t *testing.T) {
	truth := workload.GroundTruthPolicy()
	ds := workload.GenXACMLWith(7, exactLogSize, workload.DefaultSchema(), truth)
	if err := checkExactJob(truth, policyCost(truth), ds.Examples, truth); err != nil {
		t.Fatalf("ground truth rejected: %v", err)
	}
	if checkExactJob(truth, policyCost(truth)+1, ds.Examples, truth) == nil {
		t.Error("accepted a hypothesis costlier than the ground truth")
	}
	short := &xacml.Policy{ID: "short", Combining: truth.Combining, Rules: truth.Rules[1:]}
	if checkExactJob(short, policyCost(short), ds.Examples, truth) == nil {
		t.Error("accepted a policy that misses training labels")
	}

	noisyTruth := rolePartitionPolicy()
	noisy := workload.GenXACMLWith(8, noisyLogSize, workload.DefaultSchema(), noisyTruth)
	workload.InjectNoise(noisy, noiseFrac, 9)
	if err := checkNoisyJob(noisyTruth, policyCost(noisyTruth), noisy.Examples, noisyTruth); err != nil {
		t.Fatalf("noisy ground truth rejected: %v", err)
	}
	if checkNoisyJob(short, policyCost(short), noisy.Examples, noisyTruth) == nil {
		t.Error("accepted a noisy policy scoring worse than the ground truth")
	}

	domain := xacmlDomain(workload.DefaultSchema())
	if len(domain) != 216 {
		t.Fatalf("domain has %d requests, want 216", len(domain))
	}
	got := make([]xacml.Decision, 2*len(domain))
	for i := range got {
		got[i] = truth.Evaluate(domain[i%len(domain)])
	}
	if err := checkDecider(got, truth, domain); err != nil {
		t.Fatalf("agreeing decider rejected: %v", err)
	}
	got[len(domain)+5] = xacml.DecisionIndeterminate
	if checkDecider(got, truth, domain) == nil {
		t.Error("accepted one flipped decider decision")
	}
}

// Each workload runs a few steps from set-up without a failed
// operation.
func TestWorkloadsRunClean(t *testing.T) {
	for _, def := range workloads {
		r, err := def.build()
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		m := newMeter(true)
		measure(r, m, 42, time.Minute, 6)
		r.close()
		if a, f := m.totals(); a == 0 || f != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", def.name, a, f, m.failures)
		}
	}
}

var _ agenp.ContextProvider = (*switchContext)(nil)
