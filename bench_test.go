// Benchmarks regenerating every experiment of DESIGN.md (one per paper
// figure/claim, BenchmarkE1..BenchmarkE12) plus the ablation benchmarks
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package agenp_test

import (
	"fmt"
	"testing"
	"time"

	framework "agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/cfg"
	"agenp/internal/engine"
	"agenp/internal/experiments"
	"agenp/internal/ilasp"
	"agenp/internal/obs"
	"agenp/internal/polcheck"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// mustASG builds the aⁿbⁿcⁿ grammar used by the membership ablation.
func mustASG(b *testing.B) *asg.Grammar {
	b.Helper()
	g, err := asg.ParseASG(`
start -> as bs cs {
    :- size(X)@1, size(Y)@2, X != Y.
    :- size(X)@2, size(Y)@3, X != Y.
}
as -> "a" as { size(X + 1) :- size(X)@2. }
as -> ε { size(0). }
bs -> "b" bs { size(X + 1) :- size(X)@2. }
bs -> ε { size(0). }
cs -> "c" cs { size(X + 1) :- size(X)@2. }
cs -> ε { size(0). }
`)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func asgGenerateOptions(maxNodes int) asg.GenerateOptions {
	return asg.GenerateOptions{MaxNodes: maxNodes}
}

// benchExperiment runs one experiment per iteration in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Workflow(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Pipeline(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3CleanLearning(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Overfitting(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Restrictions(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6Noise(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7LearningCurve(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE9Quality(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Explain(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Coalition(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Resupply(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13Serving(b *testing.B)      { benchExperiment(b, "E13") }

// E8 (scalability) is itself a measurement sweep; the bench variants
// below expose its components at benchmark granularity.

func BenchmarkE8ScalabilityLearner(b *testing.B) {
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("examples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			scenarios := cav.Generate(1, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cav.Learn(scenarios, ilasp.LearnOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8ScalabilitySolver(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("cycle=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			prog := coloringProgram(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := asp.Solve(prog, asp.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coloringRules 3-colors the node/edge graph.
const coloringRules = `
	col(r). col(g). col(b).
	{color(N, C)} :- node(N), col(C).
	colored(N) :- color(N, C).
	:- node(N), not colored(N).
	:- color(N, C1), color(N, C2), C1 != C2.
	:- edge(X, Y), color(X, C), color(Y, C).
`

// coloringProgram 3-colors an n-node cycle.
func coloringProgram(n int) *asp.Program {
	src := coloringRules
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node(n%d). edge(n%d, n%d).\n", i, i, (i+1)%n)
	}
	p, err := asp.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// --- ablation benchmarks (design choices from DESIGN.md) ---

// solveCase is one ground program of BenchmarkSolveEngines and
// TestSolveWorkGuard.
type solveCase struct {
	name string
	g    *asp.GroundProgram
}

// solveBenchCases grounds the CDNL engine's three workloads: a tight
// constraint program (graph coloring) and a non-tight one (coloring
// plus a positive reachability loop that exercises the unfounded-set
// check), whose answer sets the solver enumerates without a conflict,
// and a graph with no 3-coloring, which it refutes by conflict-driven
// learning: an outer and an inner 5-cycle joined by spokes, plus the
// inner pentagram.
func solveBenchCases(tb testing.TB) []solveCase {
	tb.Helper()
	extra, err := asp.Parse(`
		reach(n0).
		reach(Y) :- reach(X), edge(X, Y).
		reach(X) :- reach(Y), edge(X, Y).
		:- node(N), not reach(N).
	`)
	if err != nil {
		tb.Fatal(err)
	}
	unsat, err := asp.Parse(coloringRules + `
		node(1..10).
		edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 1).
		edge(6, 7). edge(7, 8). edge(8, 9). edge(9, 10). edge(10, 6).
		edge(1, 6). edge(2, 7). edge(3, 8). edge(4, 9). edge(5, 10).
		edge(6, 8). edge(7, 9). edge(8, 10). edge(9, 6). edge(10, 7).
	`)
	if err != nil {
		tb.Fatal(err)
	}
	ground := func(name string, p *asp.Program) solveCase {
		g, err := asp.Ground(p, asp.GroundingOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		return solveCase{name, g}
	}
	return []solveCase{
		ground("tight", coloringProgram(6)),
		ground("nontight", asp.NewProgram(append(coloringProgram(6).Rules, extra.Rules...)...)),
		ground("unsat", unsat),
	}
}

// BenchmarkSolveEngines measures the CDNL engine on solveBenchCases. The
// sub-benchmarks keep the /cdnl suffix the BENCH snapshots record.
func BenchmarkSolveEngines(b *testing.B) {
	for _, tc := range solveBenchCases(b) {
		b.Run(tc.name+"/cdnl", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := asp.SolveGround(tc.g, asp.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// groundBenchCorpus is the join-heavy program set of
// BenchmarkGroundPrograms and TestGroundingLatencyGuard: recursive closure over a dense graph, filtered cross
// products, and arithmetic chains — the shapes where join planning
// (delta pinning, index probes, early filters) matters.
func groundBenchCorpus(tb testing.TB) []*asp.Program {
	tb.Helper()
	srcs := []string{
		// Filtered triple cross product.
		`a(1..12). b(1..12). c(1..12).
		 t(X,Y,Z) :- a(X), b(Y), c(Z), X < Y, Y < Z, Z < X + 6.`,
		// Arithmetic chain with binders and negation.
		`num(0).
		 num(N + 1) :- num(N), N < 80.
		 even(N) :- num(N), N \ 2 = 0.
		 odd(N) :- num(N), not even(N).
		 pair(X,Y) :- even(X), odd(Y), Y = X + 1.`,
		// Windowed self-join composed with itself: the second rule joins
		// a derived 4-wide band relation against itself through Y.
		`e(1..50).
		 w(X,Y) :- e(X), e(Y), X < Y, Y < X + 4.
		 v(X,Z) :- w(X,Y), w(Y,Z).`,
	}
	progs := make([]*asp.Program, len(srcs))
	for i, src := range srcs {
		p, err := asp.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

// BenchmarkGroundPrograms measures batch grounding over the join-heavy
// corpus with compiled grounding plans. The sub-benchmark keeps its
// /planned suffix so earlier snapshots still compare.
func BenchmarkGroundPrograms(b *testing.B) {
	progs := groundBenchCorpus(b)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				if _, err := asp.Ground(p, asp.GroundingOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationLearnerPruning compares the set-cover fast path
// against the exhaustive subset search, both solving the same
// data-sharing task to optimality.
func BenchmarkAblationLearnerPruning(b *testing.B) {
	offers := datashare.Generate(2, 8)
	mkTask := func() *ilasp.Task {
		return &ilasp.Task{
			Bias:     datashare.Bias(),
			Examples: datashare.LearningExamples(offers, 0),
		}
	}
	// Establish the optimum once so both engines search to the same
	// bound.
	ref, err := mkTask().LearnIndependent(ilasp.LearnOptions{MaxRules: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mkTask().LearnIndependent(ilasp.LearnOptions{MaxRules: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mkTask().Learn(ilasp.LearnOptions{MaxRules: 3, MaxCost: ref.Cost})
			if err != nil {
				b.Fatal(err)
			}
			if res.Cost != ref.Cost {
				b.Fatalf("engines disagree: %d vs %d", res.Cost, ref.Cost)
			}
		}
	})
}

// BenchmarkAblationMembership compares Earley-backed ASG membership
// against exhaustive generate-and-compare on the aⁿbⁿcⁿ grammar.
func BenchmarkAblationMembership(b *testing.B) {
	g := mustASG(b)
	tokens := []string{"a", "a", "b", "b", "c", "c"}
	b.Run("earley-membership", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, err := g.Accepts(tokens)
			if err != nil || !ok {
				b.Fatalf("accept = %v, %v", ok, err)
			}
		}
	})
	b.Run("generate-and-compare", func(b *testing.B) {
		b.ReportAllocs()
		want := "a a b b c c"
		for i := 0; i < b.N; i++ {
			found := false
			out, err := g.Generate(asgGenerateOptions(16))
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range out {
				if s.Text() == want {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("string not generated")
			}
		}
	})
}

// coverageCheck returns one learner coverage check — the unit of work
// the re-solve search issues per (hypothesis, example) — as a full
// ground-and-solve of background ∪ hypothesis ∪ context on a
// 20-scenario CAV task: the work of BenchmarkCoverageCheck and of
// TestLearningAllocGuard's coverage budget.
func coverageCheck(tb testing.TB) func() error {
	tb.Helper()
	scenarios := cav.Generate(1, 20)
	task := &ilasp.Task{
		Background: cav.Background(),
		Bias:       cav.Bias(),
		Examples:   cav.LearningExamples(scenarios, 0),
	}
	res, err := task.LearnIndependent(ilasp.LearnOptions{MaxRules: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		_, err := task.Covers(res.Hypothesis, task.Examples[0])
		return err
	}
}

// BenchmarkCoverageCheck measures one coverageCheck.
func BenchmarkCoverageCheck(b *testing.B) {
	check := coverageCheck(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := check(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PDP serving path (compile-once, serve-many) ---

// pdpFixture installs n token policies (half permit, half deny, across
// n/2 distinct actions so deny-overrides has work to do) and returns the
// repository plus a request mix of hits and misses.
func pdpFixture(n int) (*policy.Repository, []xacml.Request) {
	repo := policy.NewRepository()
	verbs := []string{"permit", "deny"}
	for i := 0; i < n; i++ {
		action := fmt.Sprintf("task-%03d", i/2)
		repo.Put(policy.Policy{
			ID:     fmt.Sprintf("p%03d", i),
			Tokens: []string{verbs[i%2], "do", action},
		})
	}
	var reqs []xacml.Request
	for i := 0; i < n/2; i++ {
		reqs = append(reqs, xacml.NewRequest().Set(xacml.Action, "id", xacml.S(fmt.Sprintf("do task-%03d", i))))
	}
	reqs = append(reqs, xacml.NewRequest().Set(xacml.Action, "id", xacml.S("do nothing")))
	return repo, reqs
}

// BenchmarkPDPThroughput compares the seed decision path (copy the
// repository, re-interpret every policy string per request) against the
// compiled DecisionEngine, single-request and batched, at 100 policies.
// BENCH_4.json records the results; the tentpole target is >= 5x on
// single-request throughput.
func BenchmarkPDPThroughput(b *testing.B) {
	const nPolicies = 100
	repo, reqs := pdpFixture(nPolicies)
	ti := &framework.TokenInterpreter{}

	b.Run("interpreter-list", func(b *testing.B) {
		// The pre-engine PDP: one full repository copy plus a linear
		// policy scan per request.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pols := repo.List()
			ti.Decide(pols, reqs[i%len(reqs)])
		}
	})

	eng := engine.New(repo, ti.CompileDecider)
	if _, err := eng.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.Run("engine-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Decide(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("engine-batch", func(b *testing.B) {
		b.ReportAllocs()
		const batch = 64
		buf := make([]xacml.Request, batch)
		var out []engine.Result
		for i := 0; i < b.N; i += batch {
			k := batch
			if rem := b.N - i; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				buf[j] = reqs[(i+j)%len(reqs)]
			}
			var err error
			out, err = eng.DecideBatch(buf[:k], out[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineRecorder measures the flight-recorder tax on the hot
// decision path: the engine-single loop with no recorder attached, with
// the agenpd deployment shape (a rolling window plus a sampling
// recorder at shift 10, recording every 1024th decision), and with full
// recording (shift 0: every decision pays digest, commit, and window
// observation). BENCH_6.json records the results; the CI gate is
// TestRecorderOverheadGuard, which re-measures off vs sampled in-process
// and fails beyond a 10% ratio.
func BenchmarkEngineRecorder(b *testing.B) {
	repo, reqs := pdpFixture(100)
	ti := &framework.TokenInterpreter{}
	run := func(b *testing.B, rec *obs.Recorder) {
		eng := engine.New(repo, ti.CompileDecider)
		if _, err := eng.Refresh(); err != nil {
			b.Fatal(err)
		}
		if rec != nil {
			eng.SetRecorder(rec)
			defer rec.Close()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Decide(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("recorder-off", func(b *testing.B) { run(b, nil) })
	b.Run("recorder-sampled", func(b *testing.B) {
		run(b, obs.NewRecorder(obs.RecorderOptions{
			SampleShift: 10,
			LatencySLO:  time.Millisecond,
			Window:      obs.NewRegistry().Window("decide"),
		}))
	})
	b.Run("recorder-full", func(b *testing.B) {
		run(b, obs.NewRecorder(obs.RecorderOptions{
			LatencySLO: time.Millisecond,
			Window:     obs.NewRegistry().Window("decide"),
		}))
	})
}

// BenchmarkXACMLEvaluate compares the tree-walk XACML evaluator against
// the compiled policy set (interned slots, memoized matches, target
// index) on a 100-policy set.
func BenchmarkXACMLEvaluate(b *testing.B) {
	ps := &xacml.PolicySet{ID: "bench", Combining: xacml.DenyOverrides}
	for i := 0; i < 100; i++ {
		ps.Policies = append(ps.Policies, &xacml.Policy{
			ID: fmt.Sprintf("p%03d", i),
			Target: xacml.Target{
				{Category: xacml.Action, Attr: "id", Op: xacml.OpEq, Value: xacml.S(fmt.Sprintf("act-%03d", i))},
				{Category: xacml.Subject, Attr: "level", Op: xacml.OpGeq, Value: xacml.I(i % 5)},
			},
			Rules: []xacml.Rule{
				{ID: "allow", Effect: xacml.Permit},
				{ID: "deny-low", Effect: xacml.Deny, Condition: &xacml.Condition{
					Match: &xacml.Match{Category: xacml.Subject, Attr: "level", Op: xacml.OpLt, Value: xacml.I(2)},
				}},
			},
			Combining: xacml.DenyOverrides,
		})
	}
	var reqs []xacml.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, xacml.NewRequest().
			Set(xacml.Action, "id", xacml.S(fmt.Sprintf("act-%03d", i*7%100))).
			Set(xacml.Subject, "level", xacml.I(i%6)))
	}

	b.Run("tree-walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps.Evaluate(reqs[i%len(reqs)])
		}
	})
	cs, err := xacml.CompilePolicySet(ps)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		ev := cs.NewEvaluator()
		for i := 0; i < b.N; i++ {
			ev.Evaluate(reqs[i%len(reqs)])
		}
	})
}

// polcheckFixture builds a conflict-free n-policy set in the shape the
// verifier meets in production: per-action policies with a permit rule
// for cleared levels and a deny rule below the threshold.
func polcheckFixture(n int) *xacml.PolicySet {
	ps := &xacml.PolicySet{ID: "bench", Combining: xacml.DenyOverrides}
	for i := 0; i < n; i++ {
		ps.Policies = append(ps.Policies, &xacml.Policy{
			ID:        fmt.Sprintf("p%03d", i),
			Combining: xacml.DenyOverrides,
			Target: xacml.Target{
				{Category: xacml.Action, Attr: "id", Op: xacml.OpEq, Value: xacml.S(fmt.Sprintf("act-%03d", i))},
			},
			Rules: []xacml.Rule{
				{ID: "deny-low", Effect: xacml.Deny, Target: xacml.Target{
					{Category: xacml.Subject, Attr: "level", Op: xacml.OpLt, Value: xacml.I(2)},
				}},
				{ID: "allow", Effect: xacml.Permit, Target: xacml.Target{
					{Category: xacml.Subject, Attr: "level", Op: xacml.OpGeq, Value: xacml.I(2)},
				}},
			},
		})
	}
	return ps
}

// polcheckWorkload is one BenchmarkPolcheck sub-benchmark, shared with
// TestPolcheckLatencyGuard.
type polcheckWorkload struct {
	name string
	run  func(testing.TB)
}

// polcheckWorkloads returns AnalyzeSet of the conflict-free 10- and
// 100-policy fixtures, which must report no findings, and the
// generation diff of two 100-policy fixtures one decision flip apart.
func polcheckWorkloads() []polcheckWorkload {
	analyze := func(n int) func(testing.TB) {
		ps := polcheckFixture(n)
		return func(tb testing.TB) {
			if rep := polcheck.AnalyzeSet(ps, polcheck.Options{}); len(rep.Findings) != 0 {
				tb.Fatalf("fixture has findings: %v", rep)
			}
		}
	}
	old, new := polcheckFixture(100), polcheckFixture(100)
	new.Policies[50].Rules[1].Effect = xacml.Deny // one generation flip
	return []polcheckWorkload{
		{"analyze=10", analyze(10)},
		{"analyze=100", analyze(100)},
		{"diff=100", func(tb testing.TB) {
			d, err := polcheck.DiffSets(old, new, polcheck.Options{SkipValidation: true})
			if err != nil || !d.Changed() {
				tb.Fatalf("diff = %v, %v", d, err)
			}
		}},
	}
}

// BenchmarkPolcheck measures the symbolic policy-set verifier
// (internal/polcheck) — full AnalyzeSet including the pairwise
// cross-policy sweep and subsumption, and the generation diff.
// TestPolcheckLatencyGuard gates the allocations of each sub-benchmark.
func BenchmarkPolcheck(b *testing.B) {
	for _, w := range polcheckWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.run(b)
			}
		})
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkSolverStratified(b *testing.B) {
	b.ReportAllocs()
	src := "edge(a,b). edge(b,c). edge(c,d). edge(d,e).\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\nunreach(X) :- edge(X, Y), not path(Y, X).\n"
	prog, err := asp.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asp.Solve(prog, asp.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEarleyParse(b *testing.B) {
	b.ReportAllocs()
	g, err := cfg.ParseGrammar("e -> t | t \"+\" e\nt -> \"a\" | \"(\" e \")\"\n")
	if err != nil {
		b.Fatal(err)
	}
	tokens := cfg.Tokenize("( a + a ) + ( a + ( a + a ) ) + a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Accepts(tokens) {
			b.Fatal("reject")
		}
	}
}

func BenchmarkBiasSpaceGeneration(b *testing.B) {
	b.ReportAllocs()
	bias := cav.Bias()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bias.Space(); err != nil {
			b.Fatal(err)
		}
	}
}
