package agenp

import (
	"fmt"
	"strings"

	"agenp/internal/polcheck"
	"agenp/internal/policy"
	"agenp/internal/xacml"
)

// Symbolic verification gate: when Config.VerifyPolicies is set, the
// AMS refuses to install a policy generation (PReP/PAdaP regeneration)
// or adopt a shared policy (coalition import) that would introduce a
// permit/deny conflict the currently-installed generation does not have.
// Pre-existing conflicts are baselined rather than fatal, so enabling
// the gate on a noisy repository blocks regressions without bricking
// the loop.

// PolicySetOf implements Interpreter for the verb-object token
// language: each policy becomes a one-rule XACML policy matching
// action.id against the object phrase, and the interpreter's
// deny-overrides conflict resolution becomes the set's combining
// algorithm. Unclassified-verb policies never decide, so they are
// omitted.
func (t *TokenInterpreter) PolicySetOf(policies []policy.Policy) (*xacml.PolicySet, error) {
	permit, deny := t.verbSets()
	ps := &xacml.PolicySet{ID: "token-policies", Combining: xacml.DenyOverrides}
	for _, p := range policies {
		if len(p.Tokens) < 2 {
			continue
		}
		verb := p.Tokens[0]
		var effect xacml.Effect
		switch {
		case permit[verb]:
			effect = xacml.Permit
		case deny[verb]:
			effect = xacml.Deny
		default:
			continue
		}
		phrase := strings.Join(p.Tokens[1:], " ")
		ps.Policies = append(ps.Policies, &xacml.Policy{
			ID:        p.ID,
			Combining: xacml.DenyOverrides,
			Rules: []xacml.Rule{{
				ID:     "apply",
				Effect: effect,
				Target: xacml.Target{{Category: xacml.Action, Attr: "id", Op: xacml.OpEq, Value: xacml.S(phrase)}},
			}},
		})
	}
	return ps, nil
}

// verifyCandidate analyzes a candidate snapshot and rejects it when it
// introduces conflict pairs absent from the baseline. On acceptance the
// baseline and the last report advance. Callers hold a.mu.
func (a *AMS) verifyCandidateLocked(candidate []policy.Policy, stage string) error {
	if !a.verify {
		return nil
	}
	ps, err := a.interp.PolicySetOf(candidate)
	if err != nil {
		return fmt.Errorf("agenp: %s verify: %w", stage, err)
	}
	rep := polcheck.AnalyzeSet(ps, polcheck.Options{})
	keys := rep.ConflictKeys()
	var introduced []string
	for k := range keys {
		if !a.verifyBaseline[k] {
			introduced = append(introduced, k)
		}
	}
	if len(introduced) > 0 {
		statVerifyVetoes.Inc()
		conflicts := rep.Conflicts()
		detail := introduced[0]
		for _, f := range conflicts {
			if f.Witness != "" {
				detail = f.String()
				break
			}
		}
		return fmt.Errorf("agenp: %s verify: candidate introduces %d new conflict(s): %s", stage, len(introduced), detail)
	}
	a.verifyBaseline = keys
	a.lastVerify = rep
	return nil
}

// VerifySnapshot runs the symbolic verifier over the currently
// installed policy snapshot and returns the report. It does not need the
// VerifyPolicies gate.
func (a *AMS) VerifySnapshot() (*polcheck.Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps, err := a.interp.PolicySetOf(a.repo.Snapshot().Policies)
	if err != nil {
		return nil, fmt.Errorf("agenp: verify: %w", err)
	}
	rep := polcheck.AnalyzeSet(ps, polcheck.Options{})
	a.lastVerify = rep
	return rep, nil
}

// LastVerify returns the most recent verification report (nil when the
// verifier has not run).
func (a *AMS) LastVerify() *polcheck.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastVerify
}
