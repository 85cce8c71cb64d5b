package experiments

import (
	"strings"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/ilasp"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

// RunE1 reproduces the Figure 1 workflow: an initial generative policy
// model (CAV grammar, syntax only), context-dependent policy examples,
// the ILASP-based ASG learner, and the resulting learned GPM.
func RunE1(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   Title("E1"),
		Columns: []string{"stage", "detail"},
	}
	initial, err := asg.ParseASG(cav.LearnableGrammarSource)
	if err != nil {
		return nil, err
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		return nil, err
	}

	// Context-dependent examples of valid/invalid policies, as produced
	// by monitoring in the architecture.
	n := 24
	if opts.Quick {
		n = 12
	}
	scenarios := cav.Generate(opts.seed(), n)
	examples := make([]asglearn.Example, 0, 2*len(scenarios))
	for i, s := range scenarios {
		ctx := s.EnvContext()
		ctx.Extend(cav.Background())
		examples = append(examples, asglearn.Example{
			ID:       "acc" + itoa(i),
			Tokens:   []string{"accept", s.Task},
			Context:  ctx,
			Positive: s.Accept,
		})
	}

	task := &asglearn.Task{Initial: initial, Space: space, Examples: examples}
	start := time.Now()
	res, err := task.Learn(ilasp.LearnOptions{MaxRules: 2})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	t.AddRow("initial GPM", "CAV policy grammar, no semantic conditions")
	t.AddRow("examples", itoa(len(examples))+" context-dependent policy labels")
	t.AddRow("hypothesis space", itoa(len(space))+" candidate annotation rules")
	for _, h := range res.Hypothesis {
		t.AddRow("learned rule", h.String())
	}
	t.AddRow("coverage", itoa(res.Covered)+"/"+itoa(res.Total))
	t.AddRow("membership checks", itoa(res.Checks))
	t.AddRow("learning time", elapsed)

	// Verify the learned GPM behaves per the ground truth on a probe.
	rainy := cav.Scenario{Weather: "rain", Task: "overtake", LOA: 5, RegionMin: 1}
	ctx := rainy.EnvContext()
	ctx.Extend(cav.Background())
	ok, err := res.Grammar.WithContext(ctx).Accepts([]string{"accept", "overtake"})
	if err != nil {
		return nil, err
	}
	t.AddRow("probe accept-overtake-in-rain", boolStr(!ok, "correctly rejected", "WRONGLY accepted"))
	return t, nil
}

// RunE2 drives the Figure 2 architecture end to end on a live AMS: the
// PReP generates policies for the context, the PDP/PEP serve and monitor
// requests, violations accumulate, the PAdaP evolves the model, and the
// repository is regenerated.
func RunE2(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   Title("E2"),
		Columns: []string{"phase", "policies", "model version", "decisions", "violations", "adaptations"},
	}
	model, err := core.ParseGPM(cav.LearnableGrammarSource)
	if err != nil {
		return nil, err
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		return nil, err
	}
	rainyEnv := cav.Scenario{Weather: "rain", LOA: 5, RegionMin: 1}
	ctx := rainyEnv.EnvContext()
	ctx.Extend(cav.Background())

	// The effector flags execution of risky tasks in the rainy context
	// as violations — the monitoring signal of the architecture.
	ams, err := agenp.New(agenp.Config{
		Name:    "cav-ams",
		Model:   model,
		Space:   space,
		Context: &agenp.StaticContext{Program: ctx},
		Interpreter: &agenp.TokenInterpreter{
			PermitVerbs: []string{"accept"},
			DenyVerbs:   []string{"reject"},
		},
		Effector: agenp.EffectorFunc(func(req xacml.Request, d xacml.Decision) (bool, error) {
			task, _ := req.Get(xacml.Action, "id")
			return d == xacml.DecisionPermit && cav.RiskyTasks[task.Str], nil
		}),
		AdaptThreshold: 3,
	})
	if err != nil {
		return nil, err
	}
	snapshot := func(phase string) {
		s := ams.Stats()
		t.AddRow(phase, s.Policies, s.ModelVersions, s.Decisions, s.Violations, s.Adaptations)
	}
	if _, _, err := ams.Regenerate(); err != nil {
		return nil, err
	}
	snapshot("after initial PReP generation")

	// The permissive initial model generated both accept and reject for
	// each task; drop the rejects so permits flow and violations occur.
	for _, p := range ams.Repository().List() {
		if p.Tokens[0] == "reject" {
			ams.Repository().Delete(p.ID)
		}
	}
	rng := workload.NewRNG(opts.seed())
	for i := 0; i < 12; i++ {
		task := cav.Tasks[rng.Intn(len(cav.Tasks))]
		ams.Enforce(xacml.NewRequest().Set(xacml.Action, "id", xacml.S(task)))
	}
	snapshot("after serving requests")

	fb := ams.FeedbackFromViolations(func(string) *asp.Program { return ctx })
	adapted := false
	for _, f := range fb {
		a, err := ams.Observe(f)
		if err != nil {
			return nil, err
		}
		adapted = adapted || a
	}
	snapshot("after PAdaP adaptation")
	if !adapted {
		t.Note("WARNING: no adaptation was triggered")
	}
	// Post-adaptation: risky accepts are gone from the repository.
	for _, p := range ams.Repository().List() {
		if p.Tokens[0] == "accept" && cav.RiskyTasks[p.Tokens[1]] {
			t.Note("WARNING: %s survived adaptation", p.Text())
		}
	}
	t.Note("risky accept-policies removed from repository after adaptation: %v", adapted)
	return t, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var sb [20]byte
	i := len(sb)
	for n > 0 {
		i--
		sb[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		sb[i] = '-'
	}
	return string(sb[i:])
}

func boolStr(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}

func joinRules(rules []string) string {
	return strings.Join(rules, " | ")
}
