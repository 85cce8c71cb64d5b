package agenp

import (
	"fmt"
	"sync"
	"time"

	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/aspcheck"
	"agenp/internal/core"
	"agenp/internal/engine"
	"agenp/internal/obs"
	"agenp/internal/polcheck"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// Config wires an Autonomous Management System.
type Config struct {
	// Name identifies the AMS (coalition party name).
	Name string
	// Model is the initial generative policy model handed down by the
	// policy-based management system (the PBMS's CFG + constraints,
	// refined into an ASG).
	Model *core.GPM
	// Space is the hypothesis space the PAdaP may learn from.
	Space []asg.HypothesisRule
	// Context supplies the operating context (PIP source).
	Context ContextProvider
	// Interpreter compiles generated policies into request decisions
	// and renders them for the symbolic verifier.
	Interpreter Interpreter
	// Effector executes decisions on the managed resources.
	Effector Effector
	// AdaptThreshold is the number of observed violations that triggers
	// adaptation (default 3).
	AdaptThreshold int
	// VerifyPolicies turns on the symbolic verification gate:
	// regenerations and shared-policy imports that would introduce a
	// permit/deny conflict absent from the installed generation are
	// rejected.
	VerifyPolicies bool
}

// monitorCapacity bounds the decision log.
const monitorCapacity = 1024

// AMS is an autonomous managed system: the full Figure 2 assembly.
type AMS struct {
	name string

	mu       sync.Mutex
	models   *core.Representations
	repo     *policy.Repository
	log      *policy.MonitorLog
	context  ContextProvider
	interp   Interpreter
	pdp      *PDP
	pep      *PEP
	space    []asg.HypothesisRule
	feedback []core.Feedback
	learned  []asg.HypothesisRule // accumulated across adaptations
	adaptAt  int
	// regenKey is the ContextKey of the context the last regeneration
	// attempt ran under; Run regenerates when the current key differs.
	regenKey string

	// symbolic verification gate (see verify.go)
	verify         bool
	verifyBaseline map[string]bool
	lastVerify     *polcheck.Report

	// lifecycle for the background loop
	stop chan struct{}
	done chan struct{}

	// stats
	adaptations int
	regenerated int
}

// New assembles an AMS.
func New(cfg Config) (*AMS, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("agenp: config needs an initial model")
	}
	if cfg.Context == nil {
		cfg.Context = &StaticContext{}
	}
	if cfg.Interpreter == nil {
		return nil, fmt.Errorf("agenp: config needs an interpreter")
	}
	if cfg.Effector == nil {
		cfg.Effector = EffectorFunc(func(xacml.Request, xacml.Decision) (bool, error) { return false, nil })
	}
	adaptAt := cfg.AdaptThreshold
	if adaptAt <= 0 {
		adaptAt = 3
	}

	repo := policy.NewRepository()
	log := policy.NewMonitorLog(monitorCapacity)
	pdp := NewPDP(repo, cfg.Interpreter)
	return &AMS{
		name:           cfg.Name,
		models:         core.NewRepresentations(cfg.Model),
		repo:           repo,
		log:            log,
		context:        cfg.Context,
		interp:         cfg.Interpreter,
		pdp:            pdp,
		pep:            NewPEP(pdp, cfg.Effector, log),
		space:          cfg.Space,
		adaptAt:        adaptAt,
		verify:         cfg.VerifyPolicies,
		verifyBaseline: make(map[string]bool),
	}, nil
}

// Name returns the AMS name.
func (a *AMS) Name() string { return a.name }

// AttachRecorder wires a decision flight recorder into the serving
// path: every sampled PDP decision commits one audit record, and
// coalition imports land in its events ring. Pass nil to detach.
func (a *AMS) AttachRecorder(r *obs.Recorder) { a.pdp.Engine().SetRecorder(r) }

// Recorder returns the attached flight recorder (nil when none).
func (a *AMS) Recorder() *obs.Recorder { return a.pdp.Engine().Recorder() }

// Repository exposes the policy repository (for inspection and sharing).
func (a *AMS) Repository() *policy.Repository { return a.repo }

// Models exposes the representations repository.
func (a *AMS) Models() *core.Representations { return a.models }

// MonitorLog exposes the decision history.
func (a *AMS) MonitorLog() *policy.MonitorLog { return a.log }

// Adaptations returns how many times the model was evolved.
func (a *AMS) Adaptations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.adaptations
}

// Regenerate runs the PReP flow: read the context, generate the policies
// of the current GPM under it, and install them in the policy repository.
// It returns the installed policies. The second result, rejections by
// policy ID, is always nil: every generated string comes with a parse
// tree whose program has an answer set, so it is in the GPM's language
// by Definition 1 and nothing is rejected. It stays so that callers
// destructuring three results keep compiling.
func (a *AMS) Regenerate() ([]policy.Policy, map[string]error, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	generated, err := a.regenerateLocked()
	return generated, nil, err
}

func (a *AMS) regenerateLocked() ([]policy.Policy, error) {
	ctx := a.context.Current()
	a.regenKey = ContextKey(ctx)
	model := a.models.Latest()
	// Static analysis gate: a model whose grammar has error-severity
	// findings (unsafe annotation variables, parse-level damage) would
	// fail or mislead deep inside grounding; refuse to install policies
	// from it and keep the repository on the previous generation.
	if findings := model.Lint(ctx); findings.HasErrors() {
		errs := findings.Filter(aspcheck.Error)
		return nil, fmt.Errorf("agenp: PReP lint: model rejected (%s): %s", findings.Summary(), errs[0])
	}
	generated, err := model.Generate(ctx)
	if err != nil {
		return nil, fmt.Errorf("agenp: PReP generation: %w", err)
	}
	// Symbolic verification gate: refuse to install a generation that
	// introduces a permit/deny conflict the current one does not have.
	// The repository stays on the previous generation, like a lint veto.
	if err := a.verifyCandidateLocked(generated, "PReP"); err != nil {
		return nil, err
	}
	a.repo.ReplaceAll(generated)
	// Eagerly recompile the decision engine so the swap cost lands here,
	// at the (rare) regeneration, not on the first request after it.
	if err := a.pdp.Refresh(); err != nil {
		return nil, fmt.Errorf("agenp: PReP recompile: %w", err)
	}
	a.regenerated++
	statRegens.Inc()
	statGenerated.Add(int64(len(generated)))
	statAccepted.Add(int64(len(generated)))
	return generated, nil
}

// Decide runs the PDP flow on a request under the current policies.
func (a *AMS) Decide(req xacml.Request) (xacml.Decision, string, error) {
	return a.pdp.Decide(req)
}

// DecideBatch evaluates requests under one consistent compiled snapshot
// (see engine.Engine.DecideBatch).
func (a *AMS) DecideBatch(reqs []xacml.Request, out []engine.Result) ([]engine.Result, error) {
	return a.pdp.DecideBatch(reqs, out)
}

// PDP exposes the policy decision point.
func (a *AMS) PDP() *PDP { return a.pdp }

// Engine exposes the PDP's compiled decision engine.
func (a *AMS) Engine() *engine.Engine { return a.pdp.Engine() }

// Enforce runs the PDP+PEP flow and records monitoring history.
func (a *AMS) Enforce(req xacml.Request) Outcome {
	a.mu.Lock()
	ctx := a.context.Current()
	a.mu.Unlock()
	return a.pep.Enforce(req, ctx)
}

// Observe hands the PAdaP a validity observation about a policy in a
// context (from monitoring analysis or an operator). When the number of
// negative observations since the last adaptation reaches the adaptation
// threshold, the model is evolved and policies are regenerated.
func (a *AMS) Observe(fb core.Feedback) (adapted bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.feedback = append(a.feedback, fb)
	negatives := 0
	for _, f := range a.feedback {
		if !f.Valid {
			negatives++
		}
	}
	if negatives < a.adaptAt {
		return false, nil
	}
	if err := a.adaptLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// Adapt forces an adaptation cycle from the accumulated feedback.
func (a *AMS) Adapt() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.adaptLocked()
}

func (a *AMS) adaptLocked() error {
	if len(a.feedback) == 0 {
		return fmt.Errorf("agenp: no feedback to adapt from")
	}
	sp := obs.StartSpan("agenp.adapt")
	defer sp.End()
	examples := core.ExamplesFromFeedback(a.feedback)
	evo, err := a.models.Latest().Evolve(a.space, examples)
	if err != nil {
		return fmt.Errorf("agenp: PAdaP adaptation: %w", err)
	}
	a.models.Push(evo.Model)
	a.learned = append(a.learned, evo.Hypothesis...)
	a.adaptations++
	statAdaptations.Inc()
	a.feedback = a.feedback[:0]
	_, err = a.regenerateLocked()
	return err
}

// ImportShared vets a policy shared by another coalition party through
// the PCP — membership in the language of the current GPM under the
// current context — and installs it when acceptable (the CASWiki-style
// shared policy flow of Section III.A.3). The policy is keyed by its
// text, as generated policies are, whatever ID the sender gave it, so a
// peer cannot overwrite a different local policy by reusing its ID.
func (a *AMS) ImportShared(p policy.Policy, origin string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p.ID = core.PolicyID(p.Tokens)
	p.Source = policy.SourceShared
	p.Origin = origin
	t0 := time.Now()
	ok, err := a.models.Latest().Validate(p.Tokens, a.context.Current())
	statCheckDur.ObserveSince(t0)
	if err != nil {
		return fmt.Errorf("agenp: membership check: %w", err)
	}
	if !ok {
		return fmt.Errorf("agenp: policy %q not in GPM language for current context", p.Text())
	}
	// Symbolic verification gate: vet the post-import snapshot before
	// adopting the shared policy, so a partner cannot push us into a
	// conflicting decision surface.
	candidate := make([]policy.Policy, 0, a.repo.Len()+1)
	for _, q := range a.repo.Snapshot().Policies {
		if q.ID != p.ID {
			candidate = append(candidate, q)
		}
	}
	candidate = append(candidate, p)
	if err := a.verifyCandidateLocked(candidate, "import"); err != nil {
		return err
	}
	a.repo.Put(p)
	// An adopted remote policy changes the decision surface immediately.
	return a.pdp.Refresh()
}

// FeedbackFromViolations converts monitored violations into negative
// feedback for the learner: each violating decision's policy is marked
// invalid in the context it was applied in. Contexts are reconstructed
// through the provided resolver (monitoring stores only context keys).
func (a *AMS) FeedbackFromViolations(resolve func(contextKey string) *asp.Program) []core.Feedback {
	var out []core.Feedback
	for _, rec := range a.log.Violations() {
		p, ok := a.repo.Get(rec.PolicyID)
		if !ok {
			continue
		}
		out = append(out, core.Feedback{
			Tokens:  p.Tokens,
			Context: resolve(rec.ContextKey),
			Valid:   false,
		})
	}
	return out
}

// Run starts the autonomic loop: on every tick the context is polled and,
// if it differs from the one the last regeneration ran under, policies
// are regenerated (Section III.A: "Such an update would be triggered if
// ... there has been a change in context"). Stop with Shutdown.
func (a *AMS) Run(interval time.Duration) {
	a.mu.Lock()
	if a.stop != nil {
		a.mu.Unlock()
		return // already running
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	stop, done := a.stop, a.done
	a.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				a.mu.Lock()
				if ContextKey(a.context.Current()) != a.regenKey {
					// A failed attempt keeps the previous generation
					// serving and is not retried until the context
					// changes again.
					_, _ = a.regenerateLocked()
				}
				a.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
}

// Shutdown stops the autonomic loop and waits for it to exit.
func (a *AMS) Shutdown() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Stats summarizes AMS activity.
type Stats struct {
	Regenerations int
	Adaptations   int
	Decisions     int
	Violations    int
	ModelVersions int
	Policies      int
}

// Stats returns a snapshot of activity counters.
func (a *AMS) Stats() Stats {
	a.mu.Lock()
	regen, adapt := a.regenerated, a.adaptations
	a.mu.Unlock()
	return Stats{
		Regenerations: regen,
		Adaptations:   adapt,
		Decisions:     a.log.Len(),
		Violations:    len(a.log.Violations()),
		ModelVersions: a.models.Version(),
		Policies:      a.repo.Len(),
	}
}
