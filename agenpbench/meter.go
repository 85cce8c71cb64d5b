package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"agenp/internal/obs"
)

// Operation kinds. Every timed operation of every workload is one of
// these; per-layer metrics are named "<kind>.<layer>.<quantity>".
const (
	opRegen      = "regen"
	opAdapt      = "adapt"
	opLearn      = "learn"
	opNoisyLearn = "noisy_learn"
	opShare      = "share"
	opDecide     = "decide"
)

var opKinds = []string{opRegen, opAdapt, opLearn, opNoisyLearn, opShare, opDecide}

// meter collects one run's measurements: per-kind latency samples,
// attempted and failed operation counts, accuracy scores, and — in a
// traced run — spans and per-layer counter deltas.
type meter struct {
	samples   map[string][]float64 // ns per operation (ns per decision for opDecide)
	attempted map[string]int
	failed    map[string]int
	failures  []string
	accuracy  []float64
	unsettled int     // shared policies neither adopted nor rejected in time
	tr        *tracer // nil when untraced
}

func newMeter(traced bool) *meter {
	m := &meter{
		samples:   make(map[string][]float64),
		attempted: make(map[string]int),
		failed:    make(map[string]int),
	}
	if traced {
		m.tr = newTracer()
	}
	return m
}

// fail records one failed operation of the given kind.
func (m *meter) fail(kind, format string, args ...any) {
	m.failed[kind]++
	if len(m.failures) < 20 {
		m.failures = append(m.failures, kind+": "+fmt.Sprintf(format, args...))
	}
}

// check records a failed check against kind when err is non-nil.
func (m *meter) check(kind string, err error) {
	if err != nil {
		m.fail(kind, "check: %v", err)
	}
}

func (m *meter) totals() (attempted, failed int) {
	for _, n := range m.attempted {
		attempted += n
	}
	for _, n := range m.failed {
		failed += n
	}
	return attempted, failed
}

// op is one timed operation in flight. Probe snapshots of a traced run
// are taken outside the timed interval; child spans are inside it.
type op struct {
	m        *meter
	kind     string
	start    time.Time
	spanID   uint64
	before   probeValues
	children []obs.SpanData
}

// begin starts a timed operation made of calls public calls into the
// program. An operation that is never ended (it failed, or an Observe
// call did not cross the adaptation threshold) records only its attempt.
func (m *meter) begin(kind string, calls int) *op {
	m.attempted[kind] += calls
	o := &op{m: m, kind: kind}
	if m.tr != nil {
		m.tr.read(&o.before)
		o.spanID = m.tr.newID()
	}
	o.start = time.Now()
	return o
}

// child starts a span around one public call; pass the result to
// endChild. It reads the clock only in a traced run.
func (o *op) child() time.Time {
	if o.m.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (o *op) endChild(t0 time.Time, name string, attrs ...obs.Attr) {
	if o.m.tr == nil {
		return
	}
	o.children = append(o.children, obs.SpanData{
		ID: o.m.tr.newID(), Parent: o.spanID, Name: name, Start: t0, DurNs: int64(time.Since(t0)), Attrs: attrs,
	})
}

// end finishes the operation and records its duration divided by per
// (the number of decisions for opDecide, else 1).
func (o *op) end(per int) {
	d := time.Since(o.start)
	o.m.samples[o.kind] = append(o.m.samples[o.kind], float64(d)/float64(per))
	if o.m.tr != nil {
		o.m.tr.finish(o, d, per)
	}
}

// --- tracing ---

// Probe indices: obs.Default counters and histogram sums, plus Go
// runtime allocation totals, read before and after each traced
// operation.
const (
	pGroundCalls = iota
	pGroundNs
	pSolveNs
	pSearchNs
	pSearchChecks
	pCheckNs
	pPruned
	pHypotheses
	pBusyNs
	pFetchWallNs
	pIndepNs
	pIndepChecks
	pSigCollapsed
	pFilterNs
	pPCPCheckNs
	pGenerated
	pAccepted
	pCompileNs
	pCompiles
	pDecisions
	pVetNs
	pAdopted
	pRejected
	pHubBytes
	pAllocBytes
	pAllocObjects
	numProbes
)

type probeValues [numProbes]int64

var obsProbes = [...]struct {
	idx     int
	name    string
	isHisto bool
}{
	{pGroundCalls, "asp.ground.calls", false},
	{pGroundNs, "asp.ground.duration", true},
	{pSolveNs, "asp.solve.duration", true},
	{pSearchNs, "ilasp.search.duration", true},
	{pSearchChecks, "ilasp.search.checks", false},
	{pCheckNs, "ilasp.check.duration", true},
	{pPruned, "ilasp.search.pruned", false},
	{pHypotheses, "ilasp.search.hypotheses", false},
	{pBusyNs, "ilasp.worker.busy_ns", false},
	{pFetchWallNs, "ilasp.fetch.wall_ns", false},
	{pIndepNs, "ilasp.independent.duration", true},
	{pIndepChecks, "ilasp.independent.checks", false},
	{pSigCollapsed, "ilasp.sig.collapsed", false},
	{pFilterNs, "agenp.pcp.filter.duration", true},
	{pPCPCheckNs, "agenp.pcp.check.duration", true},
	{pGenerated, "agenp.policies.generated", false},
	{pAccepted, "agenp.policies.accepted", false},
	{pCompileNs, "engine.compile.duration", true},
	{pCompiles, "engine.compiles", false},
	{pDecisions, "engine.decisions", false},
	{pVetNs, "coalition.vet.duration", true},
	{pAdopted, "coalition.policies.adopted", false},
	{pRejected, "coalition.policies.rejected", false},
	{pHubBytes, "coalition.hub.bytes", false},
}

// kindAcc accumulates one operation kind's traced totals.
type kindAcc struct {
	n      int
	durNs  float64
	per    float64 // summed per-operation divisors (decisions for opDecide)
	deltas [numProbes]float64
	calls  map[string]float64 // child span ns by call name
}

type tracer struct {
	readers [numProbes]func() int64
	rt      []metrics.Sample
	nextID  uint64
	spans   []obs.SpanData
	kinds   map[string]*kindAcc
}

func newTracer() *tracer {
	t := &tracer{
		rt: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
		kinds: make(map[string]*kindAcc),
	}
	for _, p := range obsProbes {
		if p.isHisto {
			h := obs.Default.Histogram(p.name)
			t.readers[p.idx] = h.SumNs
		} else {
			c := obs.Default.Counter(p.name)
			t.readers[p.idx] = c.Value
		}
	}
	for _, k := range opKinds {
		t.kinds[k] = &kindAcc{calls: make(map[string]float64)}
	}
	return t
}

func (t *tracer) newID() uint64 {
	t.nextID++
	return t.nextID
}

func (t *tracer) read(v *probeValues) {
	for i, r := range t.readers {
		if r != nil {
			v[i] = r()
		}
	}
	metrics.Read(t.rt)
	v[pAllocBytes] = int64(t.rt[0].Value.Uint64())
	v[pAllocObjects] = int64(t.rt[1].Value.Uint64())
}

// finish closes an operation's root span and folds its probe deltas
// into the kind's totals.
func (t *tracer) finish(o *op, d time.Duration, per int) {
	var after probeValues
	t.read(&after)
	acc := t.kinds[o.kind]
	acc.n++
	acc.durNs += float64(d)
	acc.per += float64(per)
	root := obs.SpanData{ID: o.spanID, Name: o.kind, Start: o.start, DurNs: int64(d)}
	for _, p := range obsProbes {
		delta := after[p.idx] - o.before[p.idx]
		acc.deltas[p.idx] += float64(delta)
		if delta != 0 {
			root.Attrs = append(root.Attrs, obs.Attr{K: p.name, V: strconv.FormatInt(delta, 10)})
		}
	}
	for _, i := range []int{pAllocBytes, pAllocObjects} {
		acc.deltas[i] += float64(after[i] - o.before[i])
	}
	t.spans = append(t.spans, root)
	for _, c := range o.children {
		acc.calls[c.Name] += float64(c.DurNs)
		t.spans = append(t.spans, c)
	}
}

// --- statistics ---

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
