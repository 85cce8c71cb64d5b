package agenp

import (
	"fmt"
	"io"

	"agenp/internal/asg"
)

// State persistence: an AMS snapshots its policy repository and its
// learned hypothesis so a rebooting device (the "self-adaptive" parties
// of Section I operate in unstable environments) resumes with the
// policies and model it had learned, not the factory-initial GPM.
//
// The grammar itself is not serialized: the initial GPM and the
// hypothesis space are configuration, so the learned model is recovered
// by replaying the learned hypothesis rules (stored by their index in
// the space) onto the configured initial grammar.

// SavePolicies writes the policy repository snapshot.
func (a *AMS) SavePolicies(w io.Writer) error {
	return a.repo.Save(w)
}

// LoadPolicies restores the policy repository from a snapshot.
func (a *AMS) LoadPolicies(r io.Reader) error {
	return a.repo.Load(r)
}

// LearnedHypothesis returns the hypothesis rules accumulated by all
// adaptations so far, as indices into the configured hypothesis space
// (-1 entries mark rules that are not in the space, which cannot be
// persisted this way).
func (a *AMS) LearnedHypothesis() []asg.HypothesisRule {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]asg.HypothesisRule, len(a.learned))
	copy(out, a.learned)
	return out
}

// RestoreHypothesis replays previously learned hypothesis rules onto the
// *initial* model (version 0 of the representations repository), pushes
// the resulting model, and regenerates policies. Use after constructing
// an AMS with the same Config that produced the snapshot.
func (a *AMS) RestoreHypothesis(h []asg.HypothesisRule) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	base, err := a.models.At(0)
	if err != nil {
		return err
	}
	grammar, err := base.Grammar.WithHypothesis(h)
	if err != nil {
		return fmt.Errorf("agenp: restoring hypothesis: %w", err)
	}
	restored := *base
	restored.Grammar = grammar
	a.models.Push(&restored)
	a.learned = append(a.learned[:0], h...)
	_, err = a.regenerateLocked()
	return err
}
