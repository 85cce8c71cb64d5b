package ilasp

import "agenp/internal/obs"

// Telemetry for the hypothesis search. Per-search totals (hypotheses
// enumerated, subtrees pruned, checks issued) are accumulated on the
// checker and flushed once when the search finishes; per-check timings
// of re-solve checks go straight to a histogram.
var (
	statSearches  = obs.C("ilasp.search.count")
	statSearchDur = obs.H("ilasp.search.duration")
	statHyps      = obs.C("ilasp.search.hypotheses")
	statPruned    = obs.C("ilasp.search.pruned")
	statChecks    = obs.C("ilasp.search.checks")

	statCheckDur = obs.H("ilasp.check.duration")

	statIndependentLearns = obs.C("ilasp.independent.learns")
	statIndependentChecks = obs.C("ilasp.independent.checks")
	statIndependentDur    = obs.H("ilasp.independent.duration")
	// coverNoisy's work: nodes expanded, example statuses visited, and
	// candidates its remaining-slot bound scans.
	statIndependentNoisyWork = obs.C("ilasp.independent.noisy_work")

	// Signature fast path: searches served from per-candidate coverage
	// bitsets, searches whose Decomposer oracle declined to decompose
	// (they re-solve per hypothesis instead), candidates collapsed into
	// dominance classes before search, and branches skipped because a
	// candidate's signature was subsumed by the already-chosen set.
	statSigSearches  = obs.C("ilasp.sig.searches")
	statSigFallbacks = obs.C("ilasp.sig.fallbacks")
	statSigCollapsed = obs.C("ilasp.sig.collapsed")
	statSigSubsumed  = obs.C("ilasp.sig.subsumed")
	// One-step evaluations the signature builder ran: candidate instances
	// against base models, after the guard skip. Pairs of a decided
	// candidate whose guards an example's base model holds are read off
	// the guard bits instead, and counted apart.
	statSigEvals   = obs.C("ilasp.sig.evals")
	statSigDecided = obs.C("ilasp.sig.decided")

	// Hypothesis spaces enumerated from a bias (Bias.Space calls): a
	// memoized space is enumerated once per bias content.
	statSpaceBuilt = obs.C("ilasp.space.built")
)
