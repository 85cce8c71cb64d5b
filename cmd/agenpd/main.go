// Command agenpd runs a small coalition of autonomous management
// systems sharing data-sharing policies over TCP — a live demonstration
// of the Figure 2 architecture plus the CASWiki-style policy sharing of
// Section III.A.3.
//
// Each party runs the data-sharing generative policy model under its own
// trust context; party A generates its policies and shares them, and the
// other parties' Policy Checking Points adopt or reject them against
// their stricter contexts. Operator feedback then drives party A's
// Policy Adaptation Point: the model is evolved by the symbolic learner
// and policies are regenerated.
//
// With -metrics the daemon serves its telemetry registry as JSON on
// /metrics (plus expvar on /debug/vars and the pprof handlers on
// /debug/pprof/), answers live policy decisions on /decide
// (?party=party-b&action=share+image, action repeatable for a batched
// decision under one engine snapshot), and stays up after the round
// until interrupted.
//
// Usage:
//
//	agenpd [-parties 3] [-addr 127.0.0.1:0] [-metrics 127.0.0.1:8077]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/coalition"
	"agenp/internal/core"
	"agenp/internal/engine"
	"agenp/internal/obs"
	"agenp/internal/polcheck"
	"agenp/internal/xacml"
)

// Decision-endpoint telemetry: request latency includes JSON encoding,
// so it bounds what a caller of /decide actually observes; the engine's
// own compile/decide counters live in internal/engine. The windowed
// histogram reports p50/p95/p99 over the last 10s/1m/5m so a latency
// spike is visible in /metrics within one window of happening.
var (
	statDecideDur  = obs.H("agenpd.decide.duration")
	statDecideWin  = obs.W("agenpd.decide")
	statDecideReqs = obs.C("agenpd.decide.requests")
	statVerifyReqs = obs.C("agenpd.verify.requests")
	statAuditReqs  = obs.C("agenpd.audit.requests")
)

// decideServer serves PDP decisions over HTTP from the parties' compiled
// decision engines. Parties register as they join, so the handler can be
// mounted on the metrics mux before the coalition exists.
type decideServer struct {
	mu      sync.RWMutex
	members map[string]*agenp.AMS
	lead    string
}

func newDecideServer() *decideServer {
	return &decideServer{members: make(map[string]*agenp.AMS)}
}

func (s *decideServer) add(ams *agenp.AMS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.members) == 0 {
		s.lead = ams.Name()
	}
	s.members[ams.Name()] = ams
}

// decideResult is one decision in a /decide response.
type decideResult struct {
	Action   string `json:"action"`
	Decision string `json:"decision"`
	PolicyID string `json:"policy_id,omitempty"`
	Error    string `json:"error,omitempty"`
}

// decideResponse is the /decide response body.
type decideResponse struct {
	Party      string         `json:"party"`
	Generation uint64         `json:"generation"`
	Results    []decideResult `json:"results"`
}

// ServeHTTP decides one or more actions (?action=... repeated) for a
// party (?party=..., default: the lead). Multiple actions are decided as
// one batch under a single engine snapshot.
func (s *decideServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer statDecideDur.ObserveSince(t0)
	defer statDecideWin.ObserveSince(t0)
	statDecideReqs.Inc()

	actions := r.URL.Query()["action"]
	if len(actions) == 0 {
		http.Error(w, "missing action parameter", http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	party := r.URL.Query().Get("party")
	if party == "" {
		party = s.lead
	}
	ams := s.members[party]
	s.mu.RUnlock()
	if ams == nil {
		http.Error(w, fmt.Sprintf("unknown party %q", party), http.StatusNotFound)
		return
	}

	reqs := make([]xacml.Request, len(actions))
	for i, a := range actions {
		reqs[i] = xacml.NewRequest().Set(xacml.Action, "id", xacml.S(a))
	}
	out, err := ams.DecideBatch(reqs, make([]engine.Result, 0, len(reqs)))
	if err != nil && !errors.Is(err, agenp.ErrNoPolicy) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := decideResponse{Party: party, Generation: ams.Engine().Generation()}
	for i, res := range out {
		dr := decideResult{
			Action:   actions[i],
			Decision: res.Decision.String(),
			PolicyID: res.PolicyID,
		}
		if err != nil {
			dr.Error = err.Error()
		}
		resp.Results = append(resp.Results, dr)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// verifyResponse is the /verify response body.
type verifyResponse struct {
	Party      string           `json:"party"`
	Generation uint64           `json:"generation"`
	OK         bool             `json:"ok"`
	Report     *polcheck.Report `json:"report"`
}

// handleVerify runs the symbolic policy verifier over a party's live
// snapshot (?party=..., default: the lead) and reports the findings —
// conflicts with validated witness requests, shadowed and redundant
// rules, cross-policy subsumption.
func (s *decideServer) handleVerify(w http.ResponseWriter, r *http.Request) {
	statVerifyReqs.Inc()
	s.mu.RLock()
	party := r.URL.Query().Get("party")
	if party == "" {
		party = s.lead
	}
	ams := s.members[party]
	s.mu.RUnlock()
	if ams == nil {
		http.Error(w, fmt.Sprintf("unknown party %q", party), http.StatusNotFound)
		return
	}
	rep, err := ams.VerifySnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := verifyResponse{
		Party:      party,
		Generation: ams.Engine().Generation(),
		OK:         !rep.HasErrors(),
		Report:     rep,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleAudit dumps a party's decoded decision tail (?party=...,
// default: the lead; ?n=, default 100) — the flight recorder's recent
// records, anomaly copies, and import events as JSON.
func (s *decideServer) handleAudit(w http.ResponseWriter, r *http.Request) {
	statAuditReqs.Inc()
	s.mu.RLock()
	party := r.URL.Query().Get("party")
	if party == "" {
		party = s.lead
	}
	ams := s.members[party]
	s.mu.RUnlock()
	if ams == nil {
		http.Error(w, fmt.Sprintf("unknown party %q", party), http.StatusNotFound)
		return
	}
	rec := ams.Recorder()
	if rec == nil {
		http.Error(w, fmt.Sprintf("party %q has no flight recorder", party), http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	dump := rec.Dump(n)
	dump.Party = party
	dump.Generation = ams.Engine().Generation()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(dump)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agenpd:", err)
		os.Exit(1)
	}
}

// headerTimeout bounds how long the telemetry server waits for a
// client to finish its request header.
const headerTimeout = 5 * time.Second

// newServer builds the telemetry server: a client that stalls before
// finishing its request header is disconnected after readHeader, and an
// idle keep-alive connection after two minutes. There is no write
// timeout, because /debug/pprof/profile streams for 30 s, and no body
// limit, because no handler reads a request body.
func newServer(h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: 2 * time.Minute}
}

// publishOnce guards the expvar registration: expvar.Publish panics on a
// duplicate name, and tests call run more than once per process.
var publishOnce sync.Once

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("agenpd", flag.ContinueOnError)
	parties := fs.Int("parties", 3, "number of coalition parties (>= 2)")
	addr := fs.String("addr", "127.0.0.1:0", "hub listen address")
	metricsAddr := fs.String("metrics", "", "serve telemetry on this address (/metrics, /metrics/prom, /audit, /debug/vars, /debug/pprof/) and keep running until interrupted")
	slo := fs.Duration("slo", time.Millisecond, "decision latency SLO: slower decisions are flagged in the flight recorder and counted as window burn")
	sampleShift := fs.Uint("sample-shift", 0, "flight recorder samples every 2^shift-th decision (0 records all)")
	auditCap := fs.Int("audit-capacity", 1024, "flight recorder ring capacity per shard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sampleShift > 62 {
		return fmt.Errorf("sample-shift %d out of range", *sampleShift)
	}
	if *parties < 2 {
		return fmt.Errorf("need at least 2 parties")
	}

	// engine.decide aggregates sampled in-engine decision latencies
	// across all parties; agenpd.decide covers the HTTP request end to
	// end. Both burn against the same SLO.
	decideWin := obs.W("engine.decide")
	decideWin.SetSLO(*slo)
	statDecideWin.SetSLO(*slo)

	decider := newDecideServer()
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		publishOnce.Do(func() { obs.Default.PublishExpvar("agenp") })
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default.Handler())
		mux.Handle("/metrics/prom", obs.Default.PromHandler())
		mux.Handle("/decide", decider)
		mux.HandleFunc("/verify", decider.handleVerify)
		mux.HandleFunc("/audit", decider.handleAudit)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := newServer(mux, headerTimeout)
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(stdout, "metrics listening on http://%s/metrics\n", ln.Addr())
	}

	hub, err := coalition.NewTCPHub(*addr)
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }()
	fmt.Fprintf(stdout, "hub listening on %s\n", hub.Addr())

	// Party contexts alternate trust levels so PCP vetting differs.
	contexts := []string{
		"trust(high). quality(5).",
		"trust(medium). quality(5).",
		"trust(low). quality(5).",
		"trust(medium). quality(2).",
	}
	var members []*coalition.Party
	for i := 0; i < *parties; i++ {
		name := fmt.Sprintf("party-%c", 'a'+i)
		model, err := core.ParseGPM(datashare.GrammarSource)
		if err != nil {
			return err
		}
		pctx, err := asp.Parse(contexts[i%len(contexts)])
		if err != nil {
			return err
		}
		ams, err := agenp.New(agenp.Config{
			Name:    name,
			Model:   model,
			Space:   datashare.HypothesisSpace(),
			Context: &agenp.StaticContext{Program: pctx},
			Interpreter: &agenp.TokenInterpreter{
				PermitVerbs: []string{"share"},
				DenyVerbs:   []string{"withhold"},
			},
			AdaptThreshold: 2,
		})
		if err != nil {
			return err
		}
		// Each party gets its own flight recorder; every recorder
		// observes into the shared engine.decide window so /metrics
		// reports rolling percentiles over the whole coalition's
		// decision traffic.
		rec := obs.NewRecorder(obs.RecorderOptions{
			SampleShift:   uint8(*sampleShift),
			LatencySLO:    *slo,
			ShardCapacity: *auditCap,
			Window:        decideWin,
		})
		ams.AttachRecorder(rec)
		defer rec.Close()
		transport, err := coalition.DialTCP(hub.Addr())
		if err != nil {
			return err
		}
		defer func() { _ = transport.Close() }()
		p, err := coalition.Join(ams, transport)
		if err != nil {
			return err
		}
		defer p.Leave()
		members = append(members, p)
		decider.add(ams)
		fmt.Fprintf(stdout, "%s joined with context %q\n", name, contexts[i%len(contexts)])
	}

	// Party A generates its policies under its (permissive) context and
	// shares them with the coalition.
	lead := members[0]
	generated, _, err := lead.AMS.Regenerate()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s generated %d policies\n", lead.AMS.Name(), len(generated))
	if err := lead.SharePolicies(); err != nil {
		return err
	}

	// Wait for the coalition to settle.
	total := lead.AMS.Repository().Len()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, m := range members[1:] {
			i, r := m.ImportStats()
			if i+r < total {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, m := range members[1:] {
		imported, rej := m.ImportStats()
		fmt.Fprintf(stdout, "%s adopted %d and rejected %d shared policies; repository:\n",
			m.AMS.Name(), imported, rej)
		for _, p := range m.AMS.Repository().List() {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
	}

	// Operator feedback drives the lead's Policy Adaptation Point:
	// sharing signals intelligence turned out to be inappropriate even at
	// high trust, so two negative observations reach the adaptation
	// threshold, the model is evolved by the symbolic learner, and
	// policies are regenerated under the stricter grammar.
	leadCtx, err := asp.Parse(contexts[0])
	if err != nil {
		return err
	}
	if _, err := lead.AMS.Observe(core.Feedback{
		Tokens: []string{"share", "image"}, Context: leadCtx, Valid: true,
	}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		adapted, err := lead.AMS.Observe(core.Feedback{
			Tokens: []string{"share", "sigint"}, Context: leadCtx, Valid: false,
		})
		if err != nil {
			return err
		}
		if adapted {
			fmt.Fprintf(stdout, "%s adapted its model (version %d) and now holds %d policies\n",
				lead.AMS.Name(), lead.AMS.Models().Version(), lead.AMS.Repository().Len())
		}
	}

	if *metricsAddr != "" {
		fmt.Fprintln(stdout, "round complete; serving metrics until interrupted")
		<-ctx.Done()
	}
	return nil
}
