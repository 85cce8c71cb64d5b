package agenp

import (
	"strings"
	"sync"

	"agenp/internal/engine"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// TokenInterpreter is the default interpreter for verb-object policy
// languages ("accept overtake", "deny share images", ...): a policy
// applies when its object tokens equal the request's action id, and the
// leading verb selects the effect. Conflicts resolve deny-overrides,
// matching the safety posture of coalition policy systems.
//
// Verb classification is precomputed into sets on first use; the verb
// slices must not be mutated after the interpreter starts deciding.
type TokenInterpreter struct {
	// PermitVerbs and DenyVerbs classify the leading policy token
	// (defaults: permit/accept/allow and deny/reject/forbid).
	PermitVerbs []string
	DenyVerbs   []string

	once   sync.Once
	permit map[string]bool
	deny   map[string]bool
}

var _ Interpreter = (*TokenInterpreter)(nil)

func (t *TokenInterpreter) permitVerbs() []string {
	if len(t.PermitVerbs) > 0 {
		return t.PermitVerbs
	}
	return []string{"permit", "accept", "allow"}
}

func (t *TokenInterpreter) denyVerbs() []string {
	if len(t.DenyVerbs) > 0 {
		return t.DenyVerbs
	}
	return []string{"deny", "reject", "forbid"}
}

// verbSets builds the verb lookup sets once per interpreter.
func (t *TokenInterpreter) verbSets() (permit, deny map[string]bool) {
	t.once.Do(func() {
		t.permit = verbSet(t.permitVerbs())
		t.deny = verbSet(t.denyVerbs())
	})
	return t.permit, t.deny
}

func verbSet(verbs []string) map[string]bool {
	m := make(map[string]bool, len(verbs))
	for _, v := range verbs {
		m[v] = true
	}
	return m
}

// Decide is the reference semantics of the token language: it interprets
// the policy set on every call. The PDP serves CompileDecider's program
// instead; tests and benchmarks compare that program against Decide.
func (t *TokenInterpreter) Decide(policies []policy.Policy, req xacml.Request) (xacml.Decision, string) {
	action, ok := req.Get(xacml.Action, "id")
	if !ok {
		return xacml.DecisionIndeterminate, ""
	}
	permit, deny := t.verbSets()
	want := action.String()
	decision := xacml.DecisionNotApplicable
	decider := ""
	for _, p := range policies {
		if len(p.Tokens) < 2 {
			continue
		}
		if strings.Join(p.Tokens[1:], " ") != want {
			continue
		}
		verb := p.Tokens[0]
		switch {
		case deny[verb]:
			return xacml.DecisionDeny, p.ID // deny-overrides
		case permit[verb]:
			if decision != xacml.DecisionPermit {
				decision = xacml.DecisionPermit
				decider = p.ID
			}
		}
	}
	return decision, decider
}

// CompileDecider implements Interpreter: the policy set collapses to
// one action-phrase hash lookup per request, with the deny-overrides
// combining resolved at compile time.
func (t *TokenInterpreter) CompileDecider(policies []policy.Policy) (engine.Decider, error) {
	return engine.NewTokenProgram(t.permitVerbs(), t.denyVerbs(), policies), nil
}
