package ilasp

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"agenp/internal/asp"
)

// The learners are checked against the definition of an optimal
// hypothesis: enumerate every subset of at most MaxRules candidates,
// score each with Task.Covers (ground and solve B ∪ H ∪ context), and
// compare the learner's answer with the best score.

// Candidate rules a fuzzed task draws from. Heads (h, g, q) occur in no
// body, constraints included, so a space drawn from them is independent.
var defTemplates = []string{
	"h :- a.",
	"h :- b.",
	"h :- a, b.",
	"h :- not a.",
	"h :- c, not b.",
	"h :- p(X), X > 1.",
	"g :- a.",
	"g :- c.",
	"g :- b, not c.",
	"g :- p(2).",
	"q(X) :- p(X).",
	"q(1) :- p(1).",
	"q(X) :- p(X), not a.",
	"q(2) :- b.",
	":- a, c.",
	":- c, not b.",
	":- p(X), X > 1.",
}

// depTemplates follow defTemplates in the draw when flags bit 6 is set:
// rules that read or negate other candidates' heads, and choice rules.
// A space with a choice rule, or with a rule reading a head another
// candidate defines, is served by the re-solve path alone.
var depTemplates = []string{
	"h :- g.",
	"g :- h, b.",
	"h :- not g.",
	"g :- not h.",
	"{h} :- a.",
	"{g; q(1)}.",
}

var (
	// defTargets are the atoms inclusions and exclusions draw from.
	defTargets = []string{"h", "g", "q(1)", "q(2)", "a", "b"}
	// defFacts are the atoms an example context may assert.
	defFacts = []string{"a", "b", "c", "p(1)", "p(2)"}
	// defBackgrounds: none, a derived body atom, two answer sets (not
	// vectorizable), and a constraint that leaves examples whose context
	// holds c without an answer set.
	defBackgrounds = []string{"", "b :- a.", "{c}.", ":- c."}
)

// decodeLearnTask decodes a small task: at most 6 candidates with costs
// 0–3, drawn from defTemplates (followed by depTemplates when flags bit 6
// is set), and at most 4 examples of mixed polarity with weights 0–3.
// Missing bytes read as zero.
func decodeLearnTask(t *testing.T, data []byte) (*Task, LearnOptions) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	atoms := func(names []string, mask int) []asp.Atom {
		var out []asp.Atom
		for i, n := range names {
			if mask&(1<<i) != 0 {
				out = append(out, atom(t, n))
			}
		}
		return out
	}
	flags := next()
	opts := LearnOptions{
		Noise:    flags&1 != 0,
		MaxRules: 1 + (flags>>1)%3,
	}
	task := &Task{Background: prog(t, defBackgrounds[(flags>>4)%len(defBackgrounds)])}
	templates := defTemplates
	if flags&0x40 != 0 {
		templates = append(templates[:len(templates):len(templates)], depTemplates...)
	}
	for n := next() % 7; n > 0; n-- {
		r, err := asp.ParseRule(templates[next()%len(templates)])
		if err != nil {
			t.Fatal(err)
		}
		task.Space = append(task.Space, Candidate{Rule: r, Cost: next() % 4})
	}
	for n := next() % 5; n > 0; n-- {
		head, incl, excl := next(), next(), next()
		e := Example{
			ID:         fmt.Sprintf("e%d", len(task.Examples)),
			Positive:   head&1 != 0,
			Weight:     (head >> 1) % 4,
			Inclusions: atoms(defTargets, incl),
			Exclusions: atoms(defTargets, excl),
			Context:    asp.NewProgram(),
		}
		for _, a := range atoms(defFacts, head>>3) {
			e.Context.Add(asp.NewRule(a))
		}
		if incl&0x80 != 0 && len(e.Inclusions) > 0 {
			e.Inclusions = append(e.Inclusions, e.Inclusions[0]) // repeated inclusion
		}
		task.Examples = append(task.Examples, e)
	}
	return task, opts
}

// defScore is the definitional verdict on one candidate subset.
type defScore struct {
	covered  int
	feasible bool // every hard example covered
	obj      int  // cost plus the weights of uncovered soft examples
}

// defTable is the brute-force reference for one task: the best objective
// over all subsets of at most MaxRules candidates (ok false when none is
// feasible), and every subset's score keyed by its rules and cost.
type defTable struct {
	best   int
	ok     bool
	scores map[string]defScore
}

func defKey(rules []asp.Rule, cost int) string {
	s := make([]string, len(rules))
	for i, r := range rules {
		s[i] = r.String()
	}
	sort.Strings(s)
	return fmt.Sprintf("%s#%d", strings.Join(s, " "), cost)
}

func bruteForceLearn(t *testing.T, task *Task, opts LearnOptions) *defTable {
	t.Helper()
	tab := &defTable{scores: map[string]defScore{}}
	var chosen []int
	var walk func(from int)
	walk = func(from int) {
		rules := make([]asp.Rule, len(chosen))
		cost := 0
		for i, ci := range chosen {
			rules[i] = task.Space[ci].Rule
			cost += task.Space[ci].Cost
		}
		sc := defScore{feasible: true, obj: cost}
		for _, e := range task.Examples {
			ok, err := task.Covers(rules, e)
			if err != nil {
				t.Fatalf("Task.Covers: %v", err)
			}
			switch {
			case ok:
				sc.covered++
			case !opts.Noise || e.Weight <= 0:
				sc.feasible = false
			default:
				sc.obj += e.Weight
			}
		}
		tab.scores[defKey(rules, cost)] = sc
		if sc.feasible && (!tab.ok || sc.obj < tab.best) {
			tab.best, tab.ok = sc.obj, true
		}
		if len(chosen) == opts.MaxRules {
			return
		}
		for ci := from; ci < len(task.Space); ci++ {
			chosen = append(chosen, ci)
			walk(ci + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	walk(0)
	return tab
}

// check reports why a learner's answer is not optimal: ErrNoSolution must
// mean no subset is feasible; otherwise the hypothesis and cost must be a
// real subset of at most MaxRules candidates, Covered and Total must
// match Task.Covers, and the objective must be the optimum.
func (tab *defTable) check(task *Task, opts LearnOptions, res *Result, err error) error {
	if errors.Is(err, ErrNoSolution) {
		if tab.ok {
			return fmt.Errorf("no solution reported, but the optimum objective is %d", tab.best)
		}
		return nil
	}
	if err != nil {
		return err
	}
	sc, real := tab.scores[defKey(res.Hypothesis, res.Cost)]
	switch {
	case !real || len(res.Hypothesis) > opts.MaxRules:
		return fmt.Errorf("%v at cost %d is no subset of at most %d candidates", res.Hypothesis, res.Cost, opts.MaxRules)
	case res.Covered != sc.covered || res.Total != len(task.Examples):
		return fmt.Errorf("covered %d/%d, Task.Covers says %d/%d", res.Covered, res.Total, sc.covered, len(task.Examples))
	case !sc.feasible:
		return fmt.Errorf("%v leaves a hard example uncovered", res.Hypothesis)
	case !tab.ok || sc.obj != tab.best:
		return fmt.Errorf("%v scores %d, the optimum is %d", res.Hypothesis, sc.obj, tab.best)
	}
	return nil
}

// learnResolve is Learn on the re-solve path: the wrapper hides the
// oracle's Decomposer methods, so coverage comes from Task.Covers,
// never from signatures.
func learnResolve(task *Task, opts LearnOptions) (*Result, error) {
	o := struct{ Oracle }{&taskOracle{task: task, ps: prepare(task.Space, true)}}
	sol, err := Search(o, ExampleWeights(task.Examples), opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Covered: sol.Covered, Total: len(task.Examples), Checks: sol.Checks}
	for _, ci := range sol.Chosen {
		res.Hypothesis = append(res.Hypothesis, task.Space[ci].Rule)
		res.Cost += task.Space[ci].Cost
	}
	return res, nil
}

// singleBase reports whether background ∪ context has exactly one
// answer set for every example, as LearnIndependent requires.
func singleBase(t *testing.T, task *Task) bool {
	t.Helper()
	for _, e := range task.Examples {
		p := asp.NewProgram()
		p.Extend(task.Background)
		p.Extend(e.Context)
		models, err := asp.Solve(p, asp.SolveOptions{MaxModels: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(models) != 1 {
			return false
		}
	}
	return true
}

// readsCandidateHead reports whether a candidate's body reads or negates
// the head predicate of a candidate in the space.
func readsCandidateHead(space []Candidate) bool {
	heads := map[string]bool{}
	for _, c := range space {
		if c.Rule.Head != nil {
			heads[c.Rule.Head.Predicate] = true
		}
	}
	for _, c := range space {
		for _, l := range c.Rule.Body {
			if !l.IsCmp && heads[l.Atom.Predicate] {
				return true
			}
		}
	}
	return false
}

// FuzzLearnDefinitional checks both learners against brute force: Learn
// on the signature path and on the re-solve path, and LearnIndependent
// on positive-only tasks, must reach the optimum objective with Covered
// equal to Task.Covers on the returned hypothesis. LearnIndependent must
// refuse spaces with constraints, choice rules, or candidates that read
// other candidates' heads.
func FuzzLearnDefinitional(f *testing.F) {
	seeds := [][]byte{
		{},
		// Zero-cost hypothesis (h :- a. at cost 0) covering everything.
		{0, 1, 0, 0, 1, 9, 1, 0},
		// One example including h twice, covered by h :- a.
		{0, 1, 0, 1, 1, 9, 0x81, 0},
		// Costly duplicates of one signature, exact and noisy.
		{4, 3, 0, 2, 2, 1, 2, 3, 2, 9, 1, 2, 11, 2, 0},
		{5, 3, 0, 2, 2, 1, 2, 3, 2, 11, 1, 2, 3, 2, 0},
		// Mixed polarity, repeated inclusion, exclusion derived by the
		// background.
		{2, 4, 0, 1, 6, 1, 10, 2, 11, 1, 4, 25, 0x81, 0, 8, 4, 0, 9, 0, 32, 3, 1, 0},
		// Two-answer-set background (re-solve path only).
		{0x22, 2, 0, 1, 7, 1, 2, 9, 1, 0, 13, 2, 0},
		// Background constraint: the example holding c has no answer set.
		{0x33, 2, 7, 1, 0, 1, 2, 33, 1, 0, 9, 2, 0},
		// Noisy soft and hard examples with conflicting labels.
		{7, 3, 0, 1, 1, 1, 6, 2, 3, 11, 1, 2, 9, 0, 1, 15, 1, 0},
		// Constraints beside a headed rule: h :- a. covers the positive
		// example, and :- a, c. and :- p(X), X > 1. are both needed to
		// leave the two negatives without a witness.
		{4, 3, 0, 1, 14, 1, 16, 1, 3, 0x28, 1, 0, 0x19, 1, 0, 0x88, 1, 0},
		// Noisy: :- c, not b. against soft examples of both polarities.
		{3, 2, 15, 1, 10, 2, 3, 0x23, 0, 0, 0x22, 0, 0, 0x2b, 8, 0},
		// Recursive: h :- g. and g :- h, b. form a positive cycle, the
		// optimum chains h :- a. into g :- h, b., and LearnIndependent
		// must refuse the space.
		{0x40, 4, 17, 1, 18, 1, 0, 1, 6, 2, 3, 25, 3, 0, 9, 1, 2, 17, 0, 1},
		// Choice: {h} :- a. and {g; q(1)}. are both needed, for one
		// answer set with h and one without, and for g with q(1).
		{0x40, 3, 21, 1, 22, 1, 0, 1, 3, 9, 1, 0, 9, 0, 1, 1, 6, 0},
		// Noisy: q(X) :- p(X). (cost 1) provides e0's need q(1) but
		// violates e0, which excludes q(2); q(1) :- p(1). (cost 3)
		// provides it cleanly. The optimum abandons e0 (weight 1) and
		// covers e1 (weight 3, needs q(2)) with q(X) :- p(X)., so the
		// abandon branch must leave the violating provider allowed.
		{3, 2, 10, 1, 11, 3, 2, 195, 4, 8, 135, 8, 0},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		task, opts := decodeLearnTask(t, data)
		tab := bruteForceLearn(t, task, opts)
		res, err := task.Learn(opts)
		if e := tab.check(task, opts, res, err); e != nil {
			t.Fatalf("Learn: %v\ntask: %+v\nopts: %+v", e, task, opts)
		}
		res, err = learnResolve(task, opts)
		if e := tab.check(task, opts, res, err); e != nil {
			t.Fatalf("Learn (re-solve): %v\ntask: %+v\nopts: %+v", e, task, opts)
		}
		for _, e := range task.Examples {
			if !e.Positive {
				return
			}
		}
		res, err = task.LearnIndependent(opts)
		for _, c := range task.Space {
			if c.Rule.Head == nil {
				if err == nil || !strings.Contains(err.Error(), "requires headed candidates") {
					t.Fatalf("LearnIndependent on a space with headless candidate %s: %v, %v", c.Rule.String(), res, err)
				}
				return
			}
		}
		if readsCandidateHead(task.Space) {
			if err == nil {
				t.Fatalf("LearnIndependent on a dependent space: %v", res)
			}
			return
		}
		if !singleBase(t, task) {
			if err == nil || !strings.Contains(err.Error(), "needs exactly 1") {
				t.Fatalf("LearnIndependent on a base without exactly one answer set: %v, %v", res, err)
			}
			return
		}
		if e := tab.check(task, opts, res, err); e != nil {
			t.Fatalf("LearnIndependent: %v\ntask: %+v\nopts: %+v", e, task, opts)
		}
	})
}

// pinnedStrictStop is the fuzz input kept for the strict early-stop path
// of LearnIndependent's signature build.
const pinnedStrictStop = "testdata/fuzz/FuzzLearnDefinitional/d3619323875678c1"

// TestPinnedStrictStopInput keeps the pinned input on the path it was
// kept for: three headed candidates, a positive example e0 whose
// inclusion h is missing from its base model (so it owns a requirement
// bit), and a strict stop at e1, whose context holds c under the
// background constraint ":- c." and so has no answer set. Templates
// added to defTemplates change what the bytes draw; re-encode the file
// when this fails.
func TestPinnedStrictStopInput(t *testing.T) {
	raw, err := os.ReadFile(pinnedStrictStop)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(value, "[]byte(")
	if header != "go test fuzz v1" || !ok {
		t.Fatalf("%s: not a one-value []byte corpus file", pinnedStrictStop)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	task, opts := decodeLearnTask(t, []byte(data))
	var rules []string
	for _, c := range task.Space {
		rules = append(rules, c.Rule.String())
	}
	if want := "h :- a.|g :- c.|g :- a."; strings.Join(rules, "|") != want {
		t.Fatalf("space %q, want %q", strings.Join(rules, "|"), want)
	}
	if len(task.Examples) != 3 || !task.Examples[0].Positive || len(task.Examples[0].Inclusions) != 1 {
		t.Fatalf("examples %+v: want 3, e0 positive with one inclusion", task.Examples)
	}
	_, err = task.LearnIndependent(opts)
	want := "ilasp: example e1 background has 0 answer sets; LearnIndependent needs exactly 1"
	if err == nil || err.Error() != want {
		t.Fatalf("LearnIndependent: %v, want %q", err, want)
	}
}

// TestLearnCheckerRejectsNonOptimal: the brute-force checker accepts
// Learn's answer and rejects a costlier covering hypothesis, a wrong
// Covered count, an understated cost, and a false ErrNoSolution.
func TestLearnCheckerRejectsNonOptimal(t *testing.T) {
	task := sigTask(t, 0)
	opts := LearnOptions{MaxRules: 3}
	tab := bruteForceLearn(t, task, opts)
	res, err := task.Learn(opts)
	if e := tab.check(task, opts, res, err); e != nil {
		t.Fatalf("checker rejects Learn's answer %v: %v", res, e)
	}
	// q(1) :- p(1), p(2) (index 5) instead of q(1) :- p(1) (index 1)
	// still covers every example, one cost unit above the optimum.
	costly := &Result{
		Hypothesis: []asp.Rule{task.Space[5].Rule, task.Space[2].Rule},
		Cost:       task.Space[5].Cost + task.Space[2].Cost,
		Covered:    4,
		Total:      4,
	}
	wrongCovered := *res
	wrongCovered.Covered--
	cheap := *res
	cheap.Cost--
	for name, bad := range map[string]*Result{"costlier": costly, "covered": &wrongCovered, "cost": &cheap} {
		if tab.check(task, opts, bad, nil) == nil {
			t.Errorf("checker accepts the %s answer %v", name, bad)
		}
	}
	if tab.check(task, opts, nil, ErrNoSolution) == nil {
		t.Error("checker accepts ErrNoSolution on a solvable task")
	}
}

// noisyAccessTask draws a noise-tolerant access-control task shaped like
// the benchmark's noisy jobs but small enough for brute force: requests
// over four roles, three resources and three actions, labelled by role
// (dba and analyst permitted, dev and guest denied), with about a fifth
// of the labels flipped or made NotApplicable, weights 1–4 (about one
// example in twelve hard), and the single-literal decision rules at
// costs 1–3. With resources false the rules read only role and action:
// 14 candidates instead of 20, so MaxRules 4 stays cheap to enumerate.
func noisyAccessTask(t *testing.T, rng *rand.Rand, examples int, resources bool) *Task {
	t.Helper()
	roles := []string{"dba", "dev", "analyst", "guest"}
	types := []string{"report", "record", "log"}
	actions := []string{"read", "write", "delete"}
	bias := Bias{
		Head: []ModeAtom{M("decision", Const("effect"))},
		Body: []ModeAtom{
			M("subject", Const("roleattr"), Const("role")),
			M("action", Const("idattr"), Const("act")),
		},
		Constants: map[string][]asp.Term{
			"effect":   Constants("permit", "deny"),
			"role":     Constants(roles...),
			"res":      Constants(types...),
			"act":      Constants(actions...),
			"roleattr": Constants("role"),
			"typeattr": Constants("type"),
			"idattr":   Constants("id"),
		},
		MaxVars:     1,
		MaxBody:     1,
		RequireBody: true,
	}
	if resources {
		bias.Body = append(bias.Body, M("resource", Const("typeattr"), Const("res")))
	}
	space, err := bias.Space()
	if err != nil {
		t.Fatal(err)
	}
	for i := range space {
		space[i].Cost = 1 + rng.Intn(3)
	}
	task := &Task{Space: space}
	permit, deny := atom(t, "decision(permit)"), atom(t, "decision(deny)")
	for i := 0; i < examples; i++ {
		role := rng.Intn(len(roles))
		ctx := fmt.Sprintf("subject(role, %s). resource(type, %s). action(id, %s).",
			roles[role], types[rng.Intn(len(types))], actions[rng.Intn(len(actions))])
		yes, no := permit, deny
		if role%2 == 1 {
			yes, no = deny, permit
		}
		e := PosExample(fmt.Sprintf("req%d", i), []asp.Atom{yes}, []asp.Atom{no}, prog(t, ctx))
		switch rng.Intn(10) {
		case 0: // flipped
			e.Inclusions, e.Exclusions = e.Exclusions, e.Inclusions
		case 1: // NotApplicable
			e.Inclusions, e.Exclusions = nil, []asp.Atom{permit, deny}
		}
		if rng.Intn(12) > 0 {
			e.Weight = 1 + rng.Intn(4)
		}
		task.Examples = append(task.Examples, e)
	}
	return task
}

// TestNoisyAccessTasksOptimal checks LearnIndependent's noise-tolerant
// search against brute force on noisy access-control tasks of 10–16
// examples at MaxRules 2–4. Unlike FuzzLearnDefinitional's tasks, these
// are deep enough for coverNoisy's remaining-slot bound to prune: a
// bound one slot short fails here.
func TestNoisyAccessTasksOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 9; i++ {
		opts := LearnOptions{Noise: true, MaxRules: 2 + i%3}
		task := noisyAccessTask(t, rng, 10+rng.Intn(7), opts.MaxRules < 4)
		tab := bruteForceLearn(t, task, opts)
		res, err := task.LearnIndependent(opts)
		if e := tab.check(task, opts, res, err); e != nil {
			t.Errorf("task %d (%d examples, MaxRules %d): %v", i, len(task.Examples), opts.MaxRules, e)
		}
	}
}
