// Command agenpbench is the AGENP end-to-end benchmark. It runs one of
// three closed-loop workloads through the framework's public functions
// for a fixed time, checks every output against a known answer, and
// prints the results with one JSON object as the last line:
//
//	go run . --workload cav-autonomic --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it runs the workload untraced and then traced over the
// same inputs, reports per-layer metrics and the tracing overhead, and
// writes the traced spans as JSONL for cmd/agenptrace. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

// runner is one workload's closed loop. Every step starts when the
// previous one has returned.
type runner interface {
	// restart begins the seed's input stream from its first step.
	restart(seed uint64)
	// step runs one closed-loop iteration and records it in m.
	step(m *meter)
	// close stops everything the workload started.
	close()
}

// workloadDef describes one workload: which operation kinds fill the
// primary and secondary end-to-end slots, which percentile is each
// slot's tail, and how many warm-up steps its set-up runs.
type workloadDef struct {
	name          string
	build         func() (runner, error)
	primary       string
	secondary     string
	primaryTail   float64
	secondaryTail float64
	warmSteps     int
}

var workloads = []workloadDef{
	{
		name:          "cav-autonomic",
		build:         newCAV,
		primary:       opRegen,
		secondary:     opAdapt,
		primaryTail:   0.99,
		secondaryTail: 0.95,
		warmSteps:     2 * cavMissionEpochs,
	},
	{
		name:          "xacml-learn",
		build:         newLearn,
		primary:       opLearn,
		secondary:     opNoisyLearn,
		primaryTail:   0.95,
		secondaryTail: 0.90,
		warmSteps:     4,
	},
	{
		name:          "coalition-share",
		build:         newShare,
		primary:       opShare,
		secondary:     opRegen,
		primaryTail:   0.99,
		secondaryTail: 0.99,
		warmSteps:     200,
	},
}

const (
	// procs is the benchmark's GOMAXPROCS, and so the learner's default
	// Parallelism. On a shared 2-core host a second processor exposes
	// every operation to CPU steal on both cores and the parallel learner
	// to stragglers, which made run-to-run spreads several times wider.
	procs = 1
	// decidePasses is how many passes over its request mix one decide
	// batch of cav-autonomic and coalition-share makes.
	decidePasses = 40
	setupRuns    = 5
	// warmSeed seeds the warm-up inputs, so set-up time does not depend
	// on the measured seed.
	warmSeed = 0x5eed
)

// switchContext is a ContextProvider the driver switches between steps;
// coalition import goroutines read it concurrently.
type switchContext struct {
	p atomic.Pointer[asp.Program]
}

func (s *switchContext) Current() *asp.Program {
	if p := s.p.Load(); p != nil {
		return p
	}
	return asp.NewProgram()
}

func (s *switchContext) set(p *asp.Program) { s.p.Store(p) }

func callsAttr(n int) obs.Attr { return obs.Attr{K: "calls", V: strconv.Itoa(n)} }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agenpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cav-autonomic, xacml-learn or coalition-share")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured time")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "agenpbench: need --workload (cav-autonomic|xacml-learn|coalition-share), --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	res, err := execute(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "agenpbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "agenpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setup builds the workload setupRuns times, each time including its
// warm-up steps, and keeps the last build. It returns the median set-up
// time in seconds.
func setup(def *workloadDef, out io.Writer) (runner, float64, error) {
	var r runner
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = def.build(); err != nil {
			return nil, 0, err
		}
		warm := newMeter(false)
		r.restart(warmSeed)
		for s := 0; s < def.warmSteps; s++ {
			r.step(warm)
		}
		times = append(times, time.Since(t0).Seconds())
		if _, failed := warm.totals(); failed > 0 {
			r.close()
			return nil, 0, fmt.Errorf("warm-up failed: %s", strings.Join(warm.failures, "; "))
		}
	}
	fmt.Fprintf(out, "# setup_s runs: %s\n", fmtFloats(times))
	return r, median(times), nil
}

// measure runs the closed loop from the seed's first step until the
// deadline passes or maxSteps steps have run (maxSteps <= 0: no limit).
func measure(r runner, m *meter, seed uint64, d time.Duration, maxSteps int) int {
	r.restart(seed)
	deadline := time.Now().Add(d)
	steps := 0
	for (maxSteps <= 0 || steps < maxSteps) && time.Now().Before(deadline) {
		r.step(m)
		steps++
	}
	return steps
}

func execute(def *workloadDef, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "# agenpbench workload=%s seed=%d seconds=%g trace=%v\n", def.name, seed, d.Seconds(), traced)
	fmt.Fprintf(out, "# %s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	r, setupS, err := setup(def, out)
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := &result{Metrics: make(map[string]metricValue)}
	if !traced {
		m := newMeter(false)
		steps := measure(r, m, seed, d, 0)
		fmt.Fprintf(out, "# steps: %d\n", steps)
		report(out, def, m)
		res.Attempted, res.Failed = m.totals()
		endToEnd(res, def, m, setupS)
		return finishResult(res, out, m), nil
	}

	// The traced run replays the untraced run's inputs, so the two
	// medians of each operation kind give the tracing overhead.
	plain := newMeter(false)
	steps := measure(r, plain, seed, d/2, 0)
	m := newMeter(true)
	tsteps := measure(r, m, seed, d, steps)
	fmt.Fprintf(out, "# steps: %d untraced, %d traced over the same inputs\n", steps, tsteps)
	report(out, def, m)
	a1, f1 := plain.totals()
	a2, f2 := m.totals()
	res.Attempted, res.Failed = a1+a2, f1+f2
	perLayer(res, m, plain)
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", def.name, seed))
	if err := writeSpans(path, m.tr.spans); err != nil {
		fmt.Fprintf(out, "# trace not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "# trace: %s (%d spans; go run ./cmd/agenptrace -tree %s)\n", path, len(m.tr.spans), path)
	}
	return finishResult(res, out, plain, m), nil
}

// finishResult marks the result incorrect when any operation failed or
// any metric is not a finite number, and lists the first failures.
func finishResult(res *result, out io.Writer, meters ...*meter) *result {
	for _, m := range meters {
		for _, f := range m.failures {
			fmt.Fprintf(out, "# FAILED %s\n", f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(out, "# FAILED metric %s has no samples\n", name)
			res.Metrics[name] = metricValue{Value: 0, Unit: v.Unit}
			res.Correct = false
		}
	}
	return res
}

// tailName renders a percentile as "p99" or "p99.9".
func tailName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// report prints every operation kind's latency summary and counts.
func report(out io.Writer, def *workloadDef, m *meter) {
	for _, k := range opKinds {
		if m.attempted[k] == 0 {
			continue
		}
		s := append([]float64(nil), m.samples[k]...)
		sort.Float64s(s)
		line := fmt.Sprintf("# %s: attempted=%d failed=%d samples=%d", k, m.attempted[k], m.failed[k], len(s))
		if len(s) > 0 {
			if k == opDecide {
				line += fmt.Sprintf(" decide_ns median=%.2f", quantile(s, 0.5))
			} else {
				q, slot := 0.0, ""
				switch k {
				case def.primary:
					q, slot = def.primaryTail, " (primary_ms)"
				case def.secondary:
					q, slot = def.secondaryTail, " (secondary_ms)"
				}
				line += fmt.Sprintf(" %s_ms%s p50=%.4f", k, slot, quantile(s, 0.5)/1e6)
				if q > 0 {
					beyond := len(s) - int(math.Ceil(q*float64(len(s))))
					line += fmt.Sprintf(" %s=%.4f (%d samples beyond)", tailName(q), quantile(s, q)/1e6, beyond)
					if beyond < 10 {
						line += " WARNING: fewer than 10 samples beyond the tail percentile"
					}
				}
				line += fmt.Sprintf(" p90/p95/p99/max=%.4f/%.4f/%.4f/%.4f",
					quantile(s, 0.90)/1e6, quantile(s, 0.95)/1e6, quantile(s, 0.99)/1e6, s[len(s)-1]/1e6)
			}
		}
		fmt.Fprintln(out, line)
	}
	if len(m.accuracy) > 0 {
		fmt.Fprintf(out, "# accuracy: mean=%.4f min=%.4f over %d scored outputs\n", mean(m.accuracy), minOf(m.accuracy), len(m.accuracy))
	}
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(res *result, def *workloadDef, m *meter, setupS float64) {
	slot := func(prefix, kind string, tail float64) {
		s := append([]float64(nil), m.samples[kind]...)
		sort.Float64s(s)
		res.Metrics[prefix+".p50"] = metricValue{quantile(s, 0.5) / 1e6, "ms"}
		res.Metrics[prefix+".tail"] = metricValue{quantile(s, tail) / 1e6, "ms"}
	}
	res.Metrics["setup_s"] = metricValue{setupS, "s"}
	slot("primary_ms", def.primary, def.primaryTail)
	slot("secondary_ms", def.secondary, def.secondaryTail)
	res.Metrics["decide_ns"] = metricValue{median(m.samples[opDecide]), "ns"}
	acc := math.NaN()
	if len(m.accuracy) > 0 {
		acc = mean(m.accuracy)
	}
	res.Metrics["accuracy"] = metricValue{acc, "fraction"}
	rss, err := peakRSSMB()
	if err != nil {
		rss = math.NaN()
	}
	res.Metrics["peak_rss_mb"] = metricValue{rss, "MB"}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// writeSpans writes spans as obs.SpanData JSONL.
func writeSpans(path string, spans []obs.SpanData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(w)
	for _, s := range spans {
		sink.Emit(s)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
