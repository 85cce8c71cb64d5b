package agenp

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

const drivingGrammar = `
policy -> "accept" task
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

// dynamicContext is a mutable ContextProvider.
type dynamicContext struct {
	mu   sync.Mutex
	prog *asp.Program
}

func (d *dynamicContext) Current() *asp.Program {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prog == nil {
		return asp.NewProgram()
	}
	return d.prog
}

func (d *dynamicContext) set(t *testing.T, src string) {
	t.Helper()
	p, err := asp.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.prog = p
	d.mu.Unlock()
}

func newTestAMS(t *testing.T, ctx ContextProvider) *AMS {
	t.Helper()
	model, err := core.ParseGPM(drivingGrammar)
	if err != nil {
		t.Fatal(err)
	}
	space := []asg.HypothesisRule{
		asglearn.MustParseHypothesisRule(":- task(overtake)@2, weather(rain).", 0),
		asglearn.MustParseHypothesisRule(":- weather(rain).", 0),
	}
	ams, err := New(Config{
		Name:        "cav-1",
		Model:       model,
		Space:       space,
		Context:     ctx,
		Interpreter: &TokenInterpreter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ams
}

func actionReq(id string) xacml.Request {
	return xacml.NewRequest().Set(xacml.Action, "id", xacml.S(id))
}

func TestRegenerateInstallsPolicies(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	accepted, rejected, err := ams.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(accepted) != 4 || len(rejected) != 0 {
		t.Fatalf("accepted %d rejected %d", len(accepted), len(rejected))
	}
	if ams.Repository().Len() != 4 {
		t.Errorf("repository has %d policies", ams.Repository().Len())
	}
}

func TestRegenerateRejectsUnsafeModel(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	// grant(X) is unsafe: the lint gate must refuse to install policies
	// from this model.
	model, err := core.ParseGPM(`policy -> "fly" { grant(X). }`)
	if err != nil {
		t.Fatal(err)
	}
	ams, err := New(Config{
		Name:        "bad",
		Model:       model,
		Context:     ctx,
		Interpreter: &TokenInterpreter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ams.Regenerate()
	if err == nil {
		t.Fatal("unsafe model regenerated")
	}
	if !strings.Contains(err.Error(), "lint") || !strings.Contains(err.Error(), "unsafe") {
		t.Errorf("error does not explain the lint rejection: %v", err)
	}
	if ams.Repository().Len() != 0 {
		t.Errorf("repository has %d policies from a rejected model", ams.Repository().Len())
	}
}

func TestDecideAndEnforce(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	// "accept overtake" and "reject overtake" are both generated; the
	// deny-overrides interpreter rejects.
	d, pid, err := ams.Decide(actionReq("overtake"))
	if err != nil {
		t.Fatal(err)
	}
	if d != xacml.DecisionDeny || pid != "reject_overtake" {
		t.Errorf("Decide = %v by %q", d, pid)
	}
	out := ams.Enforce(actionReq("park"))
	if out.Decision != xacml.DecisionDeny {
		t.Errorf("Enforce park = %v", out.Decision)
	}
	if ams.MonitorLog().Len() != 1 {
		t.Errorf("monitoring log = %d records", ams.MonitorLog().Len())
	}
}

func TestDecideNoPolicies(t *testing.T) {
	ams := newTestAMS(t, &StaticContext{})
	_, _, err := ams.Decide(actionReq("overtake"))
	if !errors.Is(err, ErrNoPolicy) {
		t.Errorf("err = %v, want ErrNoPolicy", err)
	}
}

func TestObserveTriggersAdaptation(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(rain).")
	ams := newTestAMS(t, ctx)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	rain, _ := asp.Parse("weather(rain).")
	clear, _ := asp.Parse("weather(clear).")

	// Positive observations (park is fine in rain, overtake in clear).
	if adapted, err := ams.Observe(core.Feedback{Tokens: []string{"accept", "park"}, Context: rain, Valid: true}); err != nil || adapted {
		t.Fatalf("unexpected adaptation: %v %v", adapted, err)
	}
	if _, err := ams.Observe(core.Feedback{Tokens: []string{"accept", "overtake"}, Context: clear, Valid: true}); err != nil {
		t.Fatal(err)
	}
	// Three violations of accept-overtake-in-rain reach the threshold.
	for i := 0; i < 2; i++ {
		adapted, err := ams.Observe(core.Feedback{Tokens: []string{"accept", "overtake"}, Context: rain, Valid: false})
		if err != nil || adapted {
			t.Fatalf("iteration %d: adapted=%v err=%v", i, adapted, err)
		}
	}
	adapted, err := ams.Observe(core.Feedback{Tokens: []string{"accept", "overtake"}, Context: rain, Valid: false})
	if err != nil {
		t.Fatal(err)
	}
	if !adapted {
		t.Fatal("threshold reached but no adaptation")
	}
	if ams.Adaptations() != 1 || ams.Models().Version() != 2 {
		t.Errorf("adaptations=%d versions=%d", ams.Adaptations(), ams.Models().Version())
	}
	// After adaptation + regeneration in the rain context, the repository
	// no longer contains accept_overtake.
	if _, ok := ams.Repository().Get("accept_overtake"); ok {
		t.Error("accept_overtake survived adaptation in rain context")
	}
	if _, ok := ams.Repository().Get("accept_park"); !ok {
		t.Error("accept_park should remain valid")
	}
	// And the PDP now denies overtaking.
	d, _, err := ams.Decide(actionReq("overtake"))
	if err != nil {
		t.Fatal(err)
	}
	if d != xacml.DecisionDeny {
		t.Errorf("post-adaptation decision = %v", d)
	}
}

func TestAdaptWithoutFeedbackFails(t *testing.T) {
	ams := newTestAMS(t, &StaticContext{})
	if err := ams.Adapt(); err == nil {
		t.Error("Adapt with no feedback should fail")
	}
}

func TestImportShared(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	// A valid shared policy is accepted.
	err := ams.ImportShared(policy.Policy{Tokens: []string{"reject", "overtake"}}, "cav-2")
	if err != nil {
		t.Fatalf("ImportShared: %v", err)
	}
	p, ok := ams.Repository().Get("reject_overtake")
	if !ok || p.Source != policy.SourceShared || p.Origin != "cav-2" {
		t.Errorf("shared policy = %+v, %v", p, ok)
	}
	// A policy outside the GPM language is rejected by the PCP.
	err = ams.ImportShared(policy.Policy{Tokens: []string{"accept", "teleport"}}, "cav-2")
	if err == nil {
		t.Error("out-of-language shared policy accepted")
	}
}

// TestImportSharedKeysByText: a shared policy is keyed by its text, so a
// peer that sends "accept park" under the ID of the local
// "reject overtake" cannot overwrite it and flip the overtake decision.
func TestImportSharedKeysByText(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	shared := policy.Policy{ID: "reject_overtake", Tokens: []string{"accept", "park"}}
	if err := ams.ImportShared(shared, "cav-2"); err != nil {
		t.Fatal(err)
	}
	if d, pid, err := ams.Decide(actionReq("overtake")); err != nil || d != xacml.DecisionDeny || pid != "reject_overtake" {
		t.Errorf("Decide(overtake) = %v by %q (%v), want Deny by reject_overtake", d, pid, err)
	}
	if p, ok := ams.Repository().Get("reject_overtake"); !ok || p.Text() != "reject overtake" || p.Source != policy.SourceGenerated {
		t.Errorf("local reject_overtake = %+v, %v", p, ok)
	}
	if p, ok := ams.Repository().Get("accept_park"); !ok || p.Source != policy.SourceShared || p.Origin != "cav-2" {
		t.Errorf("shared accept park = %+v, %v", p, ok)
	}
}

func TestRunRegeneratesOnContextChange(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	before := ams.Stats().Regenerations

	ams.Run(5 * time.Millisecond)
	defer ams.Shutdown()

	// Unchanged context: no regeneration.
	time.Sleep(25 * time.Millisecond)
	if got := ams.Stats().Regenerations; got != before {
		t.Errorf("regenerated without context change: %d -> %d", before, got)
	}
	// Context change triggers regeneration.
	ctx.set(t, "weather(rain).")
	deadline := time.Now().Add(2 * time.Second)
	for ams.Stats().Regenerations == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ams.Stats().Regenerations == before {
		t.Error("context change did not trigger regeneration")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	ams := newTestAMS(t, &StaticContext{})
	ams.Shutdown() // not running: no-op
	ams.Run(time.Hour)
	ams.Run(time.Hour) // second Run is a no-op
	ams.Shutdown()
	ams.Shutdown()
}

func TestStats(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	ams.Enforce(actionReq("park"))
	s := ams.Stats()
	if s.Regenerations != 1 || s.Decisions != 1 || s.ModelVersions != 1 || s.Policies != 4 {
		t.Errorf("Stats = %+v", s)
	}
}

// TestPIPChangeDetection: the Run loop regenerates on a context change
// even when Enforce or ImportShared reads the new context first, so the
// old context's policies do not stay installed.
func TestPIPChangeDetection(t *testing.T) {
	const rainGrammar = `
policy -> "accept" task { :- task(overtake)@2, weather(rain). }
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`
	readers := map[string]func(*AMS) error{
		"Enforce": func(a *AMS) error { return a.Enforce(actionReq("park")).Err },
		"ImportShared": func(a *AMS) error {
			return a.ImportShared(policy.Policy{Tokens: []string{"accept", "park"}}, "cav-2")
		},
	}
	for name, read := range readers {
		t.Run(name, func(t *testing.T) {
			ctx := &dynamicContext{}
			ctx.set(t, "weather(clear).")
			model, err := core.ParseGPM(rainGrammar)
			if err != nil {
				t.Fatal(err)
			}
			ams, err := New(Config{Name: "cav-1", Model: model, Context: ctx, Interpreter: &TokenInterpreter{}})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ams.Regenerate(); err != nil {
				t.Fatal(err)
			}
			if _, ok := ams.Repository().Get("accept_overtake"); !ok {
				t.Fatal("accept_overtake not generated in clear weather")
			}
			ams.Run(50 * time.Millisecond)
			defer ams.Shutdown()

			ctx.set(t, "weather(rain).")
			if err := read(ams); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for ams.Stats().Regenerations < 2 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := ams.Stats().Regenerations; got < 2 {
				t.Fatalf("context change read by %s first: %d regenerations, want 2", name, got)
			}
			if _, ok := ams.Repository().Get("accept_overtake"); ok {
				t.Error("accept_overtake from the clear context still installed in rain")
			}
		})
	}
}

func TestContextKeyOrderIndependent(t *testing.T) {
	a, _ := asp.Parse("weather(rain). loa(3).")
	b, _ := asp.Parse("loa(3). weather(rain).")
	if ContextKey(a) != ContextKey(b) {
		t.Error("ContextKey depends on rule order")
	}
	if ContextKey(nil) != "" {
		t.Error("nil context key")
	}
}

func TestTokenInterpreter(t *testing.T) {
	ti := &TokenInterpreter{}
	ps := []policy.Policy{
		{ID: "a", Tokens: []string{"accept", "share", "images"}},
		{ID: "b", Tokens: []string{"reject", "share", "video"}},
		{ID: "junk", Tokens: []string{"malformed"}},
	}
	tests := []struct {
		action string
		want   xacml.Decision
		pid    string
	}{
		{action: "share images", want: xacml.DecisionPermit, pid: "a"},
		{action: "share video", want: xacml.DecisionDeny, pid: "b"},
		{action: "share audio", want: xacml.DecisionNotApplicable, pid: ""},
	}
	for _, tt := range tests {
		d, pid := ti.Decide(ps, actionReq(tt.action))
		if d != tt.want || pid != tt.pid {
			t.Errorf("Decide(%q) = %v, %q; want %v, %q", tt.action, d, pid, tt.want, tt.pid)
		}
	}
	// Missing action attribute.
	d, _ := ti.Decide(ps, xacml.NewRequest())
	if d != xacml.DecisionIndeterminate {
		t.Errorf("missing action = %v", d)
	}
	// Deny overrides permit for the same action.
	both := []policy.Policy{
		{ID: "p", Tokens: []string{"accept", "x"}},
		{ID: "d", Tokens: []string{"reject", "x"}},
	}
	d, pid := ti.Decide(both, actionReq("x"))
	if d != xacml.DecisionDeny || pid != "d" {
		t.Errorf("deny-overrides broken: %v %q", d, pid)
	}
}

// TestPCPFilterAndValidators: regeneration installs every policy the
// model generates, with no second check, and the PCP vets imports: a
// string outside the GPM's language is rejected with the membership
// error.
func TestPCPFilterAndValidators(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	ams := newTestAMS(t, ctx)
	generated, err := ams.Models().Latest().Generate(ctx.Current())
	if err != nil {
		t.Fatal(err)
	}
	installed, rejected, err := ams.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	if rejected != nil {
		t.Errorf("Regenerate rejected %v", rejected)
	}
	if !reflect.DeepEqual(installed, generated) {
		t.Errorf("installed %v, generated %v", installed, generated)
	}
	if got := ams.Repository().Snapshot().Policies; len(got) != len(generated) {
		t.Errorf("repository holds %d policies, %d generated", len(got), len(generated))
	}
	err = ams.ImportShared(policy.Policy{Tokens: []string{"reject", "fly"}}, "cav-2")
	if err == nil || !strings.Contains(err.Error(), `"reject fly" not in GPM language for current context`) {
		t.Errorf("out-of-language import: %v", err)
	}
}

func TestEffectorViolationRecorded(t *testing.T) {
	ctx := &dynamicContext{}
	ctx.set(t, "weather(clear).")
	model, err := core.ParseGPM(drivingGrammar)
	if err != nil {
		t.Fatal(err)
	}
	ams, err := New(Config{
		Name:        "x",
		Model:       model,
		Context:     ctx,
		Interpreter: &TokenInterpreter{},
		Effector: EffectorFunc(func(req xacml.Request, d xacml.Decision) (bool, error) {
			// Executing a permitted overtake always goes wrong.
			if v, _ := req.Get(xacml.Action, "id"); v.Str == "overtake" && d == xacml.DecisionPermit {
				return true, nil
			}
			return false, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ams.Regenerate(); err != nil {
		t.Fatal(err)
	}
	// Remove the reject policy so the permit applies.
	ams.Repository().Delete("reject_overtake")
	out := ams.Enforce(actionReq("overtake"))
	if !out.Violation {
		t.Fatal("violation not reported")
	}
	if len(ams.MonitorLog().Violations()) != 1 {
		t.Error("violation not recorded in monitor log")
	}
	// FeedbackFromViolations reconstructs learner feedback.
	rain, _ := asp.Parse("weather(clear).")
	fb := ams.FeedbackFromViolations(func(string) *asp.Program { return rain })
	if len(fb) != 1 || fb[0].Valid || fb[0].Tokens[1] != "overtake" {
		t.Errorf("feedback = %+v", fb)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing model not rejected")
	}
	model, _ := core.ParseGPM(drivingGrammar)
	if _, err := New(Config{Model: model}); err == nil {
		t.Error("missing interpreter not rejected")
	}
}
