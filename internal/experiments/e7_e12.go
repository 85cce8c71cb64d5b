package experiments

import (
	"fmt"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/apps/federated"
	"agenp/internal/apps/resupply"
	"agenp/internal/asp"
	"agenp/internal/coalition"
	"agenp/internal/core"
	"agenp/internal/explain"
	"agenp/internal/ilasp"
	"agenp/internal/mlbase"
	"agenp/internal/quality"
	"agenp/internal/xacml"
)

// RunE7 reproduces the Section IV.A claim: learning curves of the
// symbolic learner versus shallow ML on the CAV policy task. The
// expected shape is the paper's — the ASG-based learner reaches high
// accuracy with an order of magnitude fewer examples.
func RunE7(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   Title("E7"),
		Columns: []string{"train size", "symbolic", "decision tree", "naive bayes", "majority"},
	}
	sizes := []int{5, 10, 20, 40, 80}
	testN := 250
	if opts.Quick {
		sizes = []int{5, 20}
		testN = 120
	}
	total := sizes[len(sizes)-1] + testN
	scenarios := cav.Generate(opts.seed(), total)
	test := scenarios[sizes[len(sizes)-1]:]
	testInst := apps.Instances(test)

	for _, n := range sizes {
		train := scenarios[:n]
		symAcc := -1.0
		learned, err := cav.Learn(train, ilasp.LearnOptions{})
		if err == nil {
			symAcc, err = learned.Accuracy(test)
			if err != nil {
				return nil, err
			}
		}
		trainInst := apps.Instances(train)
		treeAcc := mlbase.Accuracy(mlbase.TrainID3(trainInst, mlbase.TreeOptions{}), testInst)
		nbAcc := mlbase.Accuracy(mlbase.TrainNaiveBayes(trainInst), testInst)
		majAcc := mlbase.Accuracy(mlbase.TrainMajority(trainInst), testInst)
		t.AddRow(n, symAcc, treeAcc, nbAcc, majAcc)
	}
	t.Note("expected shape per the paper: the symbolic column dominates at small train sizes")
	return t, nil
}

// RunE8 measures learner and solver scalability (the paper's
// Performance Optimization challenge, Section III.B): learning latency
// against example count and hypothesis-space size, and the fast path
// versus the exhaustive search.
func RunE8(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   Title("E8"),
		Columns: []string{"workload", "size", "space", "checks", "time"},
	}
	sizes := []int{10, 20, 40, 80}
	if opts.Quick {
		sizes = []int{10, 20}
	}
	for _, n := range sizes {
		scenarios := cav.Generate(opts.seed(), n)
		start := time.Now()
		learned, err := cav.Learn(scenarios, ilasp.LearnOptions{})
		if err != nil {
			return nil, err
		}
		space, err := cav.Bias().Space()
		if err != nil {
			return nil, err
		}
		t.AddRow("cav learn (fast path)", n, len(space), learned.Result.Checks, time.Since(start))
	}
	// Exhaustive vs fast path on a small fixed task.
	small := cav.Generate(opts.seed()+1, 8)
	exTask := &ilasp.Task{
		Background: cav.Background(),
		Bias:       cav.Bias(),
		Examples:   cav.LearningExamples(small, 0),
	}
	start := time.Now()
	fast, err := exTask.LearnIndependent(ilasp.LearnOptions{MaxRules: 3})
	if err != nil {
		return nil, err
	}
	t.AddRow("fast path (8 examples)", 8, "-", fast.Checks, time.Since(start))
	if !opts.Quick {
		exTask2 := &ilasp.Task{
			Background: cav.Background(),
			Bias:       cav.Bias(),
			Examples:   cav.LearningExamples(small, 0),
		}
		start = time.Now()
		exact, err := exTask2.Learn(ilasp.LearnOptions{MaxRules: 2, MaxCost: fast.Cost, MaxChecks: 2_000_000})
		if err != nil {
			t.AddRow("exhaustive (8 examples)", 8, "-", "budget exhausted", time.Since(start))
		} else {
			t.AddRow("exhaustive (8 examples)", 8, "-", exact.Checks, time.Since(start))
		}
	}
	// Solver scalability: graph coloring of growing cycles.
	cycles := []int{4, 6, 8}
	if opts.Quick {
		cycles = []int{4, 6}
	}
	for _, k := range cycles {
		prog := coloringProgram(k)
		start := time.Now()
		models, err := asp.Solve(prog, asp.SolveOptions{MaxModels: 0})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("solver: 3-color C%d", k), k, "-", len(models), time.Since(start))
	}
	return t, nil
}

func coloringProgram(n int) *asp.Program {
	src := "col(r). col(g). col(b).\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node(n%d).\n", i)
		src += fmt.Sprintf("edge(n%d, n%d).\n", i, (i+1)%n)
	}
	src += `
		{color(N, C)} :- node(N), col(C).
		colored(N) :- color(N, C).
		:- node(N), not colored(N).
		:- color(N, C1), color(N, C2), C1 != C2.
		:- edge(X, Y), color(X, C), color(Y, C).
	`
	p, err := asp.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// RunE9 exercises the Section V.A quality requirements on a deliberately
// flawed policy set: consistency, relevance, minimality, completeness,
// enforceability and risk.
func RunE9(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   Title("E9"),
		Columns: []string{"requirement", "finding"},
	}
	pol := &xacml.Policy{
		ID:        "flawed",
		Combining: xacml.DenyOverrides,
		Rules: []xacml.Rule{
			{ID: "permit-dba", Effect: xacml.Permit,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "role", Op: xacml.OpEq, Value: xacml.S("dba")}}},
			{ID: "deny-minors", Effect: xacml.Deny,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "age", Op: xacml.OpLt, Value: xacml.I(18)}}},
			{ID: "permit-dba-dup", Effect: xacml.Permit,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "role", Op: xacml.OpEq, Value: xacml.S("dba")}}},
			{ID: "ghost-role", Effect: xacml.Deny,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "role", Op: xacml.OpEq, Value: xacml.S("wizard")}}},
			{ID: "needs-sensor", Effect: xacml.Deny,
				Target: xacml.Target{{Category: xacml.Environment, Attr: "threat_level", Op: xacml.OpGt, Value: xacml.I(3)}}},
		},
	}
	domain := quality.NewDomain().
		Add(xacml.Subject, "role", xacml.S("dba"), xacml.S("dev"), xacml.S("guest")).
		Add(xacml.Subject, "age", xacml.I(15), xacml.I(30))
	rep := quality.Assess(pol, domain, quality.Options{})
	t.AddRow("consistency", fmt.Sprintf("consistent=%v, %d conflict(s) sampled (minor dba: permit-dba vs deny-minors)", rep.Consistent, len(rep.Conflicts)))
	t.AddRow("relevance", fmt.Sprintf("irrelevant rules: %v", rep.Irrelevant))
	t.AddRow("minimality", fmt.Sprintf("redundant rules: %v", rep.Redundant))
	t.AddRow("completeness", fmt.Sprintf("%.3f of the domain decided; %d uncovered sampled", rep.Completeness, len(rep.Uncovered)))

	enf := quality.CheckEnforceability(pol, quality.NewAttributeSet("subject.role", "subject.age"))
	t.AddRow("enforceability", fmt.Sprintf("enforceable=%v, missing=%v", enf.Enforceable(), enf.Missing))

	// Risk assessment discriminates between the policy with and without
	// its protective deny rule (paper: "a restrictive access control
	// policy may prevent ... risks that may result from the application
	// of a policy").
	minorRisk := quality.RiskFunc(func(r xacml.Request, d xacml.Decision) float64 {
		if d == xacml.DecisionPermit {
			if v, ok := r.Get(xacml.Subject, "age"); ok && v.Int < 18 {
				return 1 // permitting minors is the risk
			}
		}
		return 0
	})
	risk := quality.AssessRisk(pol, domain, minorRisk, 0)
	unguarded := *pol
	unguarded.Rules = append([]xacml.Rule{}, pol.Rules...)
	unguarded.Rules = append(unguarded.Rules[:1], unguarded.Rules[2:]...) // drop deny-minors
	riskWithout := quality.AssessRisk(&unguarded, domain, minorRisk, 0)
	t.AddRow("risk", fmt.Sprintf("mean risk %.3f with deny-minors, %.3f without it", risk, riskWithout))
	return t, nil
}

// RunE10 reproduces the Section V.B explainability artefacts: rule-level
// decision traces and the paper's loan-style counterfactual explanation.
func RunE10(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   Title("E10"),
		Columns: []string{"artefact", "content"},
	}
	pol := &xacml.Policy{
		ID:        "loan",
		Combining: xacml.FirstApplicable,
		Rules: []xacml.Rule{
			{ID: "permit-high-income", Effect: xacml.Permit,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "income", Op: xacml.OpGeq, Value: xacml.I(45000)}}},
			{ID: "deny-low-income", Effect: xacml.Deny,
				Target: xacml.Target{{Category: xacml.Subject, Attr: "income", Op: xacml.OpLt, Value: xacml.I(45000)}}},
		},
	}
	req := xacml.NewRequest().Set(xacml.Subject, "income", xacml.I(40000))
	trace := explain.Explain(pol, req)
	t.AddRow("decision", trace.Decision.String())
	for _, f := range trace.Fired {
		marker := ""
		if f.Decisive {
			marker = " (decisive)"
		}
		t.AddRow("fired rule", f.RuleID+marker)
	}
	domain := quality.NewDomain().
		Add(xacml.Subject, "income", xacml.I(40000), xacml.I(45000), xacml.I(50000))
	cfs := explain.Counterfactuals(pol, req, domain, explain.CounterfactualOptions{Want: xacml.DecisionPermit})
	for _, cf := range cfs {
		t.AddRow("counterfactual", cf.String())
	}
	t.Note(`paper's exemplar: "if your income had been $45,000, you would have been offered a loan"`)
	return t, nil
}

// RunE11 covers the Section IV.D/IV.E applications: learned data-sharing
// policies exchanged across a simulated coalition, and the federated
// model-fusion simulation with and without the learned gate policy.
func RunE11(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   Title("E11"),
		Columns: []string{"metric", "value"},
	}
	// Data sharing: learn the policy, then share generated policies.
	trainN, testN := 60, 200
	if opts.Quick {
		trainN, testN = 30, 80
	}
	offers := datashare.Generate(opts.seed(), trainN+testN)
	learned, err := datashare.Learn(offers[:trainN], ilasp.LearnOptions{})
	if err != nil {
		return nil, err
	}
	acc, err := learned.Accuracy(offers[trainN:])
	if err != nil {
		return nil, err
	}
	t.AddRow("datashare policy accuracy", acc)
	for _, r := range learned.Result.Hypothesis {
		t.AddRow("datashare learned rule", r.String())
	}

	// Coalition sharing: party A's generated policies flow to party B,
	// whose PCP rejects those invalid under its stricter context.
	imported, rejected, err := coalitionShareDemo()
	if err != nil {
		return nil, err
	}
	t.AddRow("coalition: policies adopted by partner", imported)
	t.AddRow("coalition: policies rejected by partner PCP", rejected)

	// Federated fusion.
	histN, futN := 40, 120
	if opts.Quick {
		histN, futN = 24, 60
	}
	history := federated.Generate(opts.seed()+1, histN)
	future := federated.Generate(opts.seed()+2, futN)
	gate, err := federated.Learn(history, ilasp.LearnOptions{})
	if err != nil {
		return nil, err
	}
	withPolicy, _, err := federated.Simulate(future, gate.Predict)
	if err != nil {
		return nil, err
	}
	acceptAll, _, err := federated.Simulate(future, federated.AcceptAll())
	if err != nil {
		return nil, err
	}
	oracle, _, err := federated.Simulate(future, federated.Oracle())
	if err != nil {
		return nil, err
	}
	t.AddRow("federated: final model quality, accept-all", acceptAll)
	t.AddRow("federated: final model quality, learned policy", withPolicy)
	t.AddRow("federated: final model quality, oracle", oracle)
	return t, nil
}

func coalitionShareDemo() (imported, rejected int, err error) {
	bus := coalition.NewBus()
	defer func() { _ = bus.Close() }()

	mkAMS := func(name, ctxSrc string) (*agenp.AMS, error) {
		model, err := core.ParseGPM(datashare.GrammarSource)
		if err != nil {
			return nil, err
		}
		ctx, err := asp.Parse(ctxSrc)
		if err != nil {
			return nil, err
		}
		return agenp.New(agenp.Config{
			Name:    name,
			Model:   model,
			Context: &agenp.StaticContext{Program: ctx},
			Interpreter: &agenp.TokenInterpreter{
				PermitVerbs: []string{"share"},
				DenyVerbs:   []string{"withhold"},
			},
		})
	}
	a, err := mkAMS("party-a", "trust(high). quality(5).")
	if err != nil {
		return 0, 0, err
	}
	b, err := mkAMS("party-b", "trust(medium). quality(5).")
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := a.Regenerate(); err != nil {
		return 0, 0, err
	}
	pa, err := coalition.Join(a, bus)
	if err != nil {
		return 0, 0, err
	}
	defer pa.Leave()
	pb, err := coalition.Join(b, bus)
	if err != nil {
		return 0, 0, err
	}
	defer pb.Leave()
	if err := pa.SharePolicies(); err != nil {
		return 0, 0, err
	}
	total := a.Repository().Len()
	deadline := time.Now().Add(3 * time.Second)
	for {
		i, r := pb.ImportStats()
		if i+r == total || time.Now().After(deadline) {
			return i, r, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// RunE12 reproduces the Section IV.B shape: resupply policy accuracy as
// a function of completed missions ("the coalition is able to learn from
// previous experience").
func RunE12(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   Title("E12"),
		Columns: []string{"missions", "symbolic", "decision tree", "learned rules"},
	}
	sizes := []int{4, 8, 16, 32, 64}
	testN := 250
	if opts.Quick {
		sizes = []int{4, 16}
		testN = 100
	}
	all := resupply.Generate(opts.seed(), sizes[len(sizes)-1]+testN)
	test := all[sizes[len(sizes)-1]:]
	testInst := apps.Instances(test)
	for _, n := range sizes {
		train := all[:n]
		learned, err := resupply.Learn(train, ilasp.LearnOptions{})
		symAcc := -1.0
		nRules := 0
		if err == nil {
			symAcc, err = learned.Accuracy(test)
			if err != nil {
				return nil, err
			}
			nRules = len(learned.Result.Hypothesis)
		}
		tree := mlbase.TrainID3(apps.Instances(train), mlbase.TreeOptions{})
		t.AddRow(n, symAcc, mlbase.Accuracy(tree, testInst), nRules)
	}
	t.Note("accuracy grows with mission count; the symbolic learner converges first")
	return t, nil
}
