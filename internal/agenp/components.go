// Package agenp implements the AGENP architecture of the paper's
// Figure 2: the Autonomous Management System (AMS) with its Policy
// Refinement Point (PReP), Policy Adaptation Point (PAdaP), Policy
// Checking Point (PCP), Policy Information Point (PIP), Policy Decision
// Point (PDP) and Policy Enforcement Point (PEP), wired around a policy
// repository, a representations repository of learned generative policy
// models, and a monitoring log that feeds adaptation.
package agenp

import (
	"sort"
	"strings"

	"agenp/internal/asp"
	"agenp/internal/engine"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// ContextProvider is the PIP-facing source of the current operating
// context (paper Section III.A.3: external conditions that affect the
// operation of the AMS).
type ContextProvider interface {
	// Current returns the context as an ASP program of facts.
	Current() *asp.Program
}

// StaticContext is a fixed context, useful for tests and planning-phase
// policies.
type StaticContext struct {
	Program *asp.Program
}

var _ ContextProvider = (*StaticContext)(nil)

// Current implements ContextProvider.
func (s *StaticContext) Current() *asp.Program {
	if s.Program == nil {
		return asp.NewProgram()
	}
	return s.Program
}

// ContextKey canonically renders a context for change detection.
func ContextKey(p *asp.Program) string {
	if p == nil {
		return ""
	}
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Interpreter turns the repository's generated policies into decisions
// for concrete requests: it compiles them into the decision program the
// PDP serves, and renders them as an XACML policy set for the symbolic
// verifier. The mapping from policy strings to decisions is
// domain-specific; each application (CAV, resupply, data sharing)
// supplies its own. The policies slice is the repository's immutable
// snapshot storage: implementations must not mutate it.
type Interpreter interface {
	// CompileDecider compiles one policy snapshot into a standalone
	// decision program, once per repository generation (an
	// engine.CompileFunc).
	CompileDecider(policies []policy.Policy) (engine.Decider, error)
	// PolicySetOf renders a snapshot as an XACML policy set with the
	// same decisions, for the verification gate and VerifySnapshot.
	PolicySetOf(policies []policy.Policy) (*xacml.PolicySet, error)
}

// ErrNoPolicy is reported when the PDP has no applicable policy. It is
// the engine's sentinel: the no-policy decision path does not allocate.
var ErrNoPolicy = engine.ErrNoPolicy

// PDP is the Policy Decision Point. It serves requests from a compiled
// DecisionEngine snapshot: the interpreter compiles the policy set once
// per repository generation, and the result is hot-swapped atomically on
// regeneration, so Decide never copies the repository or takes its lock.
type PDP struct {
	engine *engine.Engine
}

// NewPDP builds a PDP.
func NewPDP(repo *policy.Repository, in Interpreter) *PDP {
	return &PDP{engine: engine.New(repo, in.CompileDecider)}
}

// Engine exposes the underlying decision engine (generation inspection,
// explicit refresh).
func (d *PDP) Engine() *engine.Engine { return d.engine }

// Refresh eagerly recompiles the decision engine if the repository moved
// since the served snapshot. Decide self-heals lazily even without it;
// regeneration points call it so the swap cost is paid at update time,
// not on the first request after.
func (d *PDP) Refresh() error {
	_, err := d.engine.Refresh()
	return err
}

// Decide evaluates a request against the current policies.
func (d *PDP) Decide(req xacml.Request) (xacml.Decision, string, error) {
	return d.engine.Decide(req)
}

// DecideBatch evaluates requests under one consistent snapshot,
// appending to out (see engine.Engine.DecideBatch).
func (d *PDP) DecideBatch(reqs []xacml.Request, out []engine.Result) ([]engine.Result, error) {
	return d.engine.DecideBatch(reqs, out)
}

// Outcome is what the PEP observed when executing a decision.
type Outcome struct {
	Decision xacml.Decision
	PolicyID string
	// Violation marks that executing the decision violated operational
	// expectations (detected by monitoring or operator feedback).
	Violation bool
	// Err carries enforcement failures.
	Err error
}

// Effector applies permitted actions to the managed resources and
// reports whether the effect was acceptable. Implementations simulate
// the managed system.
type Effector interface {
	Execute(req xacml.Request, decision xacml.Decision) (violation bool, err error)
}

// EffectorFunc adapts a function to Effector.
type EffectorFunc func(req xacml.Request, decision xacml.Decision) (bool, error)

// Execute implements Effector.
func (f EffectorFunc) Execute(req xacml.Request, d xacml.Decision) (bool, error) {
	return f(req, d)
}

// PEP is the Policy Enforcement Point: it executes PDP decisions on the
// managed resources and records monitoring history.
type PEP struct {
	pdp      *PDP
	effector Effector
	log      *policy.MonitorLog
}

// NewPEP builds a PEP.
func NewPEP(pdp *PDP, eff Effector, log *policy.MonitorLog) *PEP {
	return &PEP{pdp: pdp, effector: eff, log: log}
}

// Enforce decides and executes a request, recording the outcome.
func (e *PEP) Enforce(req xacml.Request, ctx *asp.Program) Outcome {
	decision, pid, err := e.pdp.Decide(req)
	out := Outcome{Decision: decision, PolicyID: pid}
	outcome := "ok"
	switch {
	case err != nil:
		out.Err = err
		outcome = "no-policy"
	default:
		violation, execErr := e.effector.Execute(req, decision)
		out.Violation = violation
		out.Err = execErr
		if violation {
			outcome = "violation"
		}
		if execErr != nil {
			outcome = "error"
		}
	}
	e.log.Append(policy.DecisionRecord{
		RequestKey: req.Key(),
		ContextKey: ContextKey(ctx),
		Decision:   decision.String(),
		PolicyID:   pid,
		Outcome:    outcome,
	})
	return out
}
