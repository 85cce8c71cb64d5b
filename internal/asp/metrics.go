package asp

import "agenp/internal/obs"

// Telemetry for the grounding/solving core. Metrics are package
// variables recorded with single atomic adds; per-operation totals are
// accumulated in plain struct fields on the grounder/solver and flushed
// once per Ground/Solve call, so inner loops (join steps, unit
// propagations) never touch an atomic.
var (
	statGroundCalls     = obs.C("asp.ground.calls")
	statGroundDur       = obs.H("asp.ground.duration")
	statAtomsInterned   = obs.C("asp.ground.atoms_interned")
	statRulesInstances  = obs.C("asp.ground.rules_instantiated")
	statGroundRulesKept = obs.C("asp.ground.rules_finalized")
	statPlansCompiled   = obs.C("asp.ground.plans_compiled")
	statPlanCacheHits   = obs.C("asp.ground.plan_cache_hits")
	statCandScanned     = obs.C("asp.ground.candidates_scanned")

	statSolveCalls     = obs.C("asp.solve.calls")
	statSolveDur       = obs.H("asp.solve.duration")
	statDecisions      = obs.C("asp.solve.decisions")
	statConflicts      = obs.C("asp.solve.conflicts")
	statPropagations   = obs.C("asp.solve.propagations")
	statBackjumps      = obs.C("asp.solve.backjumps")
	statLearnedNogoods = obs.C("asp.solve.learned_nogoods")
	statModelsFound    = obs.C("asp.solve.models")
	// statSolveDefinite counts the solves decided without clause form or
	// search: from the grounding domain (decideDefinite), or from the
	// facts of a plain-fact program, which is not grounded (plainFacts).
	statSolveDefinite = obs.C("asp.solve.definite")
)

// flushPlanStats publishes the grounder's per-call plan/scan
// accumulators and zeroes them, so a pooled grounder reports per-call
// increments rather than lifetime totals.
func (g *grounder) flushPlanStats() {
	if g.planCompiles > 0 {
		statPlansCompiled.Add(g.planCompiles)
		g.planCompiles = 0
	}
	if g.planHits > 0 {
		statPlanCacheHits.Add(g.planHits)
		g.planHits = 0
	}
	if g.scanned > 0 {
		statCandScanned.Add(g.scanned)
		g.scanned = 0
	}
}
