package ilasp

import "agenp/internal/obs"

// Telemetry for the hypothesis search. Per-search totals (hypotheses
// enumerated, subtrees pruned, checks issued) are accumulated on the
// checker and flushed once when the search finishes; per-check timings
// go straight to histograms (atomic adds, safe from worker goroutines).
//
// Worker-pool utilisation under LearnOptions.Parallelism is derivable
// from the counters: ilasp.worker.busy_ns is the summed wall time all
// workers spent inside coverage checks, ilasp.fetch.wall_ns the summed
// wall time of the chunked fetches that dispatched them — their ratio
// times the pool width is the fraction of the pool kept busy; the gap
// is queue wait (stragglers holding a chunk open).
var (
	statSearches  = obs.C("ilasp.search.count")
	statSearchDur = obs.H("ilasp.search.duration")
	statHyps      = obs.C("ilasp.search.hypotheses")
	statPruned    = obs.C("ilasp.search.pruned")
	statChecks    = obs.C("ilasp.search.checks")

	statCheckDur    = obs.H("ilasp.check.duration")
	statWorkerBusy  = obs.C("ilasp.worker.busy_ns")
	statFetchChunks = obs.C("ilasp.fetch.chunks")
	statFetchWall   = obs.C("ilasp.fetch.wall_ns")

	statIndependentLearns = obs.C("ilasp.independent.learns")
	statIndependentChecks = obs.C("ilasp.independent.checks")
	statIndependentDur    = obs.H("ilasp.independent.duration")
	// Nodes expanded plus example statuses visited by coverNoisy.
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
)
