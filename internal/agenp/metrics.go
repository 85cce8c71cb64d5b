package agenp

import "agenp/internal/obs"

// Telemetry for the AMS component flows. Counters are flushed at natural
// batch points (one Regenerate, one adaptation, one shared-policy vet),
// so the steady-state cost is a handful of atomic adds per cycle.
var (
	statRegens      = obs.C("agenp.regenerations")
	statGenerated   = obs.C("agenp.policies.generated")
	statAccepted    = obs.C("agenp.policies.accepted")
	statAdaptations = obs.C("agenp.adaptations")

	// PCP vetting latency: one shared policy's membership check during
	// ImportShared.
	statCheckDur = obs.H("agenp.pcp.check.duration")

	// Symbolic verification gate: candidate generations or imports
	// rejected for introducing new permit/deny conflicts.
	statVerifyVetoes = obs.C("agenp.verify.vetoes")
)
