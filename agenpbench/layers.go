package main

import (
	"runtime"
)

// layerMetric is one per-layer metric of a traced run: a mean per
// operation of one kind unless its name says otherwise.
type layerMetric struct {
	name  string
	unit  string
	value func(t *tracer, traced, plain *meter) float64
}

// perOp is a probe's mean delta per operation of kind, times scale.
func perOp(kind string, probe int, scale float64) func(*tracer, *meter, *meter) float64 {
	return func(t *tracer, _, _ *meter) float64 {
		acc := t.kinds[kind]
		if acc.n == 0 {
			return 0
		}
		return acc.deltas[probe] / float64(acc.n) * scale
	}
}

// callMs is the mean time per operation of kind spent in the named
// public call.
func callMs(kind, call string) func(*tracer, *meter, *meter) float64 {
	return func(t *tracer, _, _ *meter) float64 {
		acc := t.kinds[kind]
		if acc.n == 0 {
			return 0
		}
		return acc.calls[call] / float64(acc.n) / 1e6
	}
}

// ratio is the quotient of two probe totals over operations of kind.
func ratio(kind string, num, den int) func(*tracer, *meter, *meter) float64 {
	return func(t *tracer, _, _ *meter) float64 {
		acc := t.kinds[kind]
		if acc.deltas[den] == 0 {
			return 0
		}
		return acc.deltas[num] / acc.deltas[den]
	}
}

// residualMs is the mean operation time not covered by the given probe
// durations, which are disjoint intervals inside the operation.
func residualMs(kind string, probes ...int) func(*tracer, *meter, *meter) float64 {
	return func(t *tracer, _, _ *meter) float64 {
		acc := t.kinds[kind]
		if acc.n == 0 {
			return 0
		}
		ns := acc.durNs
		for _, p := range probes {
			ns -= acc.deltas[p]
		}
		return ns / float64(acc.n) / 1e6
	}
}

// overhead is the median traced minus the median untraced sample of
// kind over the same inputs, in ms (ns for decisions).
func overhead(kind string, scale float64) func(*tracer, *meter, *meter) float64 {
	return func(_ *tracer, traced, plain *meter) float64 {
		a, b := traced.samples[kind], plain.samples[kind]
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		return (median(a) - median(b)) * scale
	}
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	const ms = 1e-6
	var out []layerMetric
	add := func(name, unit string, f func(*tracer, *meter, *meter) float64) {
		out = append(out, layerMetric{name, unit, f})
	}
	for _, k := range []string{opRegen, opAdapt, opShare} {
		add(k+".asp.ground_calls", "count", perOp(k, pGroundCalls, 1))
		add(k+".asp.ground_ms", "ms", perOp(k, pGroundNs, ms))
		add(k+".asp.solve_ms", "ms", perOp(k, pSolveNs, ms))
	}
	add("regen.unattributed_ms", "ms", residualMs(opRegen, pGroundNs, pSolveNs, pCompileNs))

	add("adapt.ilasp.search_ms", "ms", perOp(opAdapt, pSearchNs, ms))
	add("adapt.ilasp.checks", "count", perOp(opAdapt, pSearchChecks, 1))
	add("adapt.ilasp.check_ms", "ms", perOp(opAdapt, pCheckNs, ms))
	add("adapt.ilasp.pruned_ratio", "ratio", ratio(opAdapt, pPruned, pHypotheses))
	add("adapt.ilasp.pool_busy_ratio", "ratio", func(t *tracer, _, _ *meter) float64 {
		// Workers' summed busy time over the pool's capacity during the
		// fetches that dispatched them (the default pool is GOMAXPROCS wide).
		return ratio(opAdapt, pBusyNs, pFetchWallNs)(t, nil, nil) / float64(runtime.GOMAXPROCS(0))
	})
	for _, k := range []string{opLearn, opNoisyLearn} {
		add(k+".ilasp.learn_ms", "ms", perOp(k, pIndepNs, ms))
		add(k+".ilasp.checks", "count", perOp(k, pIndepChecks, 1))
		add(k+".ilasp.sig_collapsed", "count", perOp(k, pSigCollapsed, 1))
	}

	add("regen.agenp.pcp_filter_ms", "ms", perOp(opRegen, pFilterNs, ms))
	add("regen.agenp.accepted_ratio", "ratio", ratio(opRegen, pAccepted, pGenerated))
	add("share.agenp.pcp_check_ms", "ms", perOp(opShare, pPCPCheckNs, ms))

	add("regen.engine.compile_ms", "ms", perOp(opRegen, pCompileNs, ms))
	add("share.engine.compiles", "count", perOp(opShare, pCompiles, 1))
	add("share.engine.compile_ms", "ms", perOp(opShare, pCompileNs, ms))
	add("learn.engine.compile_ms", "ms", callMs(opLearn, "engine.NewXACMLDecider"))
	add("decide.engine.decisions", "count", perOp(opDecide, pDecisions, 1))

	add("share.coalition.vet_ms", "ms", perOp(opShare, pVetNs, ms))
	add("share.coalition.wait_ms", "ms", residualMs(opShare, pVetNs))
	add("share.coalition.adopted", "count", perOp(opShare, pAdopted, 1))
	add("share.coalition.rejected", "count", perOp(opShare, pRejected, 1))
	add("share.coalition.unsettled", "count", func(_ *tracer, traced, _ *meter) float64 {
		return float64(traced.unsettled)
	})
	add("share.coalition.hub_bytes", "bytes", perOp(opShare, pHubBytes, 1))

	for _, k := range []string{opLearn, opNoisyLearn} {
		add(k+".xacml.convert_ms", "ms", callMs(k, "xacml.PolicyFromHypothesis"))
		add(k+".polcheck.analyze_ms", "ms", callMs(k, "polcheck.AnalyzeSet"))
	}

	for _, k := range opKinds {
		add(k+".go.alloc_kb", "KB", perOp(k, pAllocBytes, 1.0/1024))
		add(k+".go.mallocs", "count", perOp(k, pAllocObjects, 1))
	}
	add("decide.go.allocs_per_decision", "count", func(t *tracer, _, _ *meter) float64 {
		acc := t.kinds[opDecide]
		if acc.per == 0 {
			return 0
		}
		return acc.deltas[pAllocObjects] / acc.per
	})

	for _, k := range []string{opRegen, opAdapt, opLearn, opNoisyLearn, opShare} {
		add(k+".trace_overhead_ms", "ms", overhead(k, ms))
	}
	add("decide.trace_overhead_ns", "ns", overhead(opDecide, 1))
	return out
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(res *result, traced, plain *meter) {
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metricValue{lm.value(traced.tr, traced, plain), lm.unit}
	}
}
