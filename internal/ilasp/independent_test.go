package ilasp

import (
	"errors"
	"strings"
	"testing"

	"agenp/internal/asp"
)

func TestLearnIndependentSimple(t *testing.T) {
	task := &Task{
		Background: prog(t, "bird(tweety). bird(sam). penguin(sam)."),
		Bias: Bias{
			Head:          []ModeAtom{M("flies", Var("animal"))},
			Body:          []ModeAtom{M("bird", Var("animal")), M("penguin", Var("animal"))},
			MaxVars:       1,
			MaxBody:       2,
			AllowNegation: true,
			RequireBody:   true,
		},
		Examples: []Example{
			PosExample("e1", []asp.Atom{atom(t, "flies(tweety)")}, []asp.Atom{atom(t, "flies(sam)")}, nil),
		},
	}
	res, err := task.LearnIndependent(LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 1 || res.Hypothesis[0].String() != "flies(V1) :- bird(V1), not penguin(V1)." {
		t.Errorf("learned %v", res.Hypothesis)
	}
	if res.Covered != 1 || res.Checks == 0 {
		t.Errorf("stats = %+v", res)
	}
}

// TestLearnIndependentAgreesWithLearn: on independent tasks both engines
// find hypotheses of the same optimal cost with the same coverage.
func TestLearnIndependentAgreesWithLearn(t *testing.T) {
	mkTask := func() *Task {
		return &Task{
			Background: prog(t, "subject(role, dba). subject(age, 20)."),
			Bias: Bias{
				Head: []ModeAtom{M("decision", Const("effect"))},
				Body: []ModeAtom{
					M("subject", Const("roleattr"), Const("role")),
					M("subject", Const("ageattr"), Var("num")),
				},
				Constants: map[string][]asp.Term{
					"effect":   consts("permit", "deny"),
					"role":     consts("dba", "guest"),
					"roleattr": consts("role"),
					"ageattr":  consts("age"),
				},
				Comparisons: []CmpSpec{{
					Type:   "num",
					Ops:    []asp.CmpOp{asp.CmpGeq},
					Values: []asp.Term{asp.Integer{Value: 18}},
				}},
				MaxVars:     1,
				MaxBody:     2,
				RequireBody: true,
			},
			Examples: []Example{
				PosExample("permit dba",
					[]asp.Atom{atom(t, "decision(permit)")},
					[]asp.Atom{atom(t, "decision(deny)")}, nil),
			},
		}
	}
	exact, err := mkTask().Learn(LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mkTask().LearnIndependent(LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cost != fast.Cost {
		t.Errorf("cost mismatch: exact %d (%v) vs fast %d (%v)", exact.Cost, exact.Hypothesis, fast.Cost, fast.Hypothesis)
	}
	if exact.Covered != fast.Covered {
		t.Errorf("coverage mismatch: %d vs %d", exact.Covered, fast.Covered)
	}
}

func TestLearnIndependentMultiRuleCover(t *testing.T) {
	// Two contexts need two different rules.
	task := &Task{
		Bias: Bias{
			Head: []ModeAtom{M("decision", Const("effect"))},
			Body: []ModeAtom{M("subject", Const("attr"), Const("role"))},
			Constants: map[string][]asp.Term{
				"effect": consts("permit", "deny"),
				"attr":   consts("role"),
				"role":   consts("dba", "guest", "dev"),
			},
			MaxBody:     2,
			RequireBody: true,
		},
		Examples: []Example{
			PosExample("dba permitted",
				[]asp.Atom{atom(t, "decision(permit)")},
				[]asp.Atom{atom(t, "decision(deny)")},
				prog(t, "subject(role, dba).")),
			PosExample("guest denied",
				[]asp.Atom{atom(t, "decision(deny)")},
				[]asp.Atom{atom(t, "decision(permit)")},
				prog(t, "subject(role, guest).")),
			PosExample("dev nothing",
				nil,
				[]asp.Atom{atom(t, "decision(permit)"), atom(t, "decision(deny)")},
				prog(t, "subject(role, dev).")),
		},
	}
	res, err := task.LearnIndependent(LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range res.Hypothesis {
		got[r.String()] = true
	}
	if !got["decision(permit) :- subject(role,dba)."] || !got["decision(deny) :- subject(role,guest)."] {
		t.Errorf("learned %v", got)
	}
	if len(res.Hypothesis) != 2 {
		t.Errorf("hypothesis size = %d", len(res.Hypothesis))
	}
}

func TestLearnIndependentNoSolution(t *testing.T) {
	task := &Task{
		Bias: Bias{
			Head:        []ModeAtom{M("decision", Const("effect"))},
			Body:        []ModeAtom{M("subject", Const("attr"), Const("role"))},
			Constants:   map[string][]asp.Term{"effect": consts("permit"), "attr": consts("role"), "role": consts("dba")},
			MaxBody:     1,
			RequireBody: true,
		},
		Examples: []Example{
			// Same context, contradictory labels.
			PosExample("a", []asp.Atom{atom(t, "decision(permit)")}, nil, prog(t, "subject(role, dba).")),
			PosExample("b", nil, []asp.Atom{atom(t, "decision(permit)")}, prog(t, "subject(role, dba).")),
		},
	}
	_, err := task.LearnIndependent(LearnOptions{})
	if !errors.Is(err, ErrNoSolution) {
		t.Errorf("err = %v, want ErrNoSolution", err)
	}
}

func TestLearnIndependentNoise(t *testing.T) {
	task := &Task{
		Bias: Bias{
			Head:        []ModeAtom{M("decision", Const("effect"))},
			Body:        []ModeAtom{M("subject", Const("attr"), Const("role"))},
			Constants:   map[string][]asp.Term{"effect": consts("permit"), "attr": consts("role"), "role": consts("dba")},
			MaxBody:     1,
			RequireBody: true,
		},
		Examples: []Example{
			{ID: "good1", Positive: true, Inclusions: []asp.Atom{atom(t, "decision(permit)")}, Context: prog(t, "subject(role, dba)."), Weight: 10},
			{ID: "good2", Positive: true, Inclusions: []asp.Atom{atom(t, "decision(permit)")}, Context: prog(t, "subject(role, dba)."), Weight: 10},
			{ID: "noisy", Positive: true, Exclusions: []asp.Atom{atom(t, "decision(permit)")}, Context: prog(t, "subject(role, dba)."), Weight: 1},
		},
	}
	res, err := task.LearnIndependent(LearnOptions{Noise: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 1 || res.Covered != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestLearnIndependentRejectsNegativeExamples(t *testing.T) {
	task := &Task{
		Bias: Bias{
			Head:        []ModeAtom{M("p")},
			Body:        []ModeAtom{M("q")},
			MaxBody:     1,
			RequireBody: true,
		},
		Examples: []Example{NegExample("n", []asp.Atom{atom(t, "p")}, nil, prog(t, "q."))},
	}
	if _, err := task.LearnIndependent(LearnOptions{}); err == nil {
		t.Error("negative examples should be rejected")
	}
}

func TestLearnIndependentRejectsRecursiveSpace(t *testing.T) {
	r1, _ := asp.ParseRule("p :- q.")
	r2, _ := asp.ParseRule("q :- p.")
	task := &Task{
		Space:    []Candidate{{Rule: r1, Cost: 2}, {Rule: r2, Cost: 2}},
		Examples: []Example{PosExample("e", []asp.Atom{atom(t, "p")}, nil, nil)},
	}
	if _, err := task.LearnIndependent(LearnOptions{}); err == nil {
		t.Error("recursive space should be rejected")
	}
}

func TestLearnIndependentRejectsConstraintCandidates(t *testing.T) {
	r, _ := asp.ParseRule(":- q.")
	task := &Task{
		Space:    []Candidate{{Rule: r, Cost: 1}},
		Examples: []Example{PosExample("e", nil, nil, prog(t, "q."))},
	}
	if _, err := task.LearnIndependent(LearnOptions{}); err == nil {
		t.Error("constraint candidates should be rejected")
	}
}

// TestLearnIndependentRejectsNondeterministicBackground: a background
// with two answer sets, or with none, is rejected.
func TestLearnIndependentRejectsNondeterministicBackground(t *testing.T) {
	for _, bg := range []string{"{a; b}.", "a :- not a."} {
		task := &Task{
			Background: prog(t, bg),
			Bias: Bias{
				Head:        []ModeAtom{M("p")},
				Body:        []ModeAtom{M("a")},
				MaxBody:     1,
				RequireBody: true,
			},
			Examples: []Example{PosExample("e", []asp.Atom{atom(t, "p")}, nil, nil)},
		}
		_, err := task.LearnIndependent(LearnOptions{})
		if err == nil || !strings.Contains(err.Error(), "needs exactly 1") {
			t.Errorf("background %q: err = %v, want the needs-exactly-1 rejection", bg, err)
		}
	}
}

func TestLearnIndependentEmptyHypothesis(t *testing.T) {
	task := &Task{
		Background: prog(t, "p."),
		Bias: Bias{
			Head:        []ModeAtom{M("q")},
			Body:        []ModeAtom{M("p")},
			MaxBody:     1,
			RequireBody: true,
		},
		Examples: []Example{PosExample("e", []asp.Atom{atom(t, "p")}, nil, nil)},
	}
	res, err := task.LearnIndependent(LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) != 0 {
		t.Errorf("hypothesis = %v, want empty", res.Hypothesis)
	}
}

func TestLearnIndependentMaxRules(t *testing.T) {
	// Needs 2 rules but MaxRules is 1.
	task := &Task{
		Bias: Bias{
			Head: []ModeAtom{M("decision", Const("effect"))},
			Body: []ModeAtom{M("subject", Const("attr"), Const("role"))},
			Constants: map[string][]asp.Term{
				"effect": consts("permit", "deny"),
				"attr":   consts("role"),
				"role":   consts("dba", "guest"),
			},
			MaxBody:     1,
			RequireBody: true,
		},
		Examples: []Example{
			PosExample("a", []asp.Atom{atom(t, "decision(permit)")}, []asp.Atom{atom(t, "decision(deny)")}, prog(t, "subject(role, dba).")),
			PosExample("b", []asp.Atom{atom(t, "decision(deny)")}, []asp.Atom{atom(t, "decision(permit)")}, prog(t, "subject(role, guest).")),
		},
	}
	if _, err := task.LearnIndependent(LearnOptions{MaxRules: 1}); !errors.Is(err, ErrNoSolution) {
		t.Error("MaxRules not enforced")
	}
	res, err := task.LearnIndependent(LearnOptions{MaxRules: 2})
	if err != nil || len(res.Hypothesis) != 2 {
		t.Errorf("MaxRules 2: %v, %v", res, err)
	}
}
