package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"agenp/internal/obs"
)

func TestCoalitionRun(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-parties", "3", "-addr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"hub listening on",
		"party-a joined",
		"party-b joined",
		"party-c joined",
		"party-a generated 8 policies",
		"party-b adopted 7 and rejected 1",
		"party-a adapted its model (version 2)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestTooFewParties(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-parties", "1"}, &out); err == nil {
		t.Error("single party not rejected")
	}
}

// syncBuffer lets the test read the transcript while run is still
// writing it from its own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestMetricsEndpoint runs the daemon with -metrics, scrapes /metrics
// after the round, and cross-checks the scraped counters against the
// printed transcript: coalition adopted/rejected totals must match the
// per-party lines exactly, and the grounding/solving/learning pipeline
// counters must all have advanced.
func TestMetricsEndpoint(t *testing.T) {
	// The registry is process-global and other tests advance it too, so
	// compare deltas against a snapshot taken before the run starts
	// (package tests run sequentially).
	base := map[string]int64{}
	for _, name := range []string{
		"coalition.policies.adopted",
		"coalition.policies.rejected",
		"coalition.policies.published",
		"coalition.hub.messages",
		"agenp.policies.generated",
		"agenp.adaptations",
		"asp.ground.calls",
		"asp.solve.calls",
		"ilasp.search.count",
	} {
		base[name] = obs.C(name).Value()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-parties", "3", "-metrics", "127.0.0.1:0"}, &out)
	}()

	waitFor := func(what string) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s := out.String(); strings.Contains(s, what) {
				return s
			}
			select {
			case err := <-errCh:
				t.Fatalf("daemon exited early (err=%v); output:\n%s", err, out.String())
			case <-time.After(5 * time.Millisecond):
			}
		}
		t.Fatalf("timeout waiting for %q; output:\n%s", what, out.String())
		return ""
	}
	s := waitFor("round complete; serving metrics until interrupted")

	m := regexp.MustCompile(`metrics listening on (http://\S+)`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no metrics address in output:\n%s", s)
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q, want JSON", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	delta := func(name string) int64 { return snap.Counters[name] - base[name] }

	// Transcript cross-check: summed per-party adopted/rejected lines
	// must equal the counter deltas.
	var wantAdopted, wantRejected int64
	for _, m := range regexp.MustCompile(`adopted (\d+) and rejected (\d+)`).FindAllStringSubmatch(s, -1) {
		a, _ := strconv.ParseInt(m[1], 10, 64)
		r, _ := strconv.ParseInt(m[2], 10, 64)
		wantAdopted += a
		wantRejected += r
	}
	if wantAdopted == 0 {
		t.Fatalf("transcript reports no adoptions:\n%s", s)
	}
	if got := delta("coalition.policies.adopted"); got != wantAdopted {
		t.Errorf("coalition.policies.adopted delta = %d, transcript says %d", got, wantAdopted)
	}
	if got := delta("coalition.policies.rejected"); got != wantRejected {
		t.Errorf("coalition.policies.rejected delta = %d, transcript says %d", got, wantRejected)
	}

	// Every pipeline stage must have fired during the round.
	for _, name := range []string{
		"coalition.policies.published",
		"coalition.hub.messages",
		"agenp.policies.generated",
		"agenp.adaptations",
		"asp.ground.calls",
		"asp.solve.calls",
		"ilasp.search.count",
	} {
		if delta(name) <= 0 {
			t.Errorf("counter %s did not advance (delta %d)", name, delta(name))
		}
	}
	if snap.Histograms["coalition.vet.duration"].Count == 0 {
		t.Error("coalition.vet.duration recorded no observations")
	}

	// The pprof index must be mounted on the same mux.
	pprofURL := strings.TrimSuffix(m[1], "/metrics") + "/debug/pprof/"
	pr, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("GET %s = %d", pprofURL, pr.StatusCode)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
	if !strings.Contains(out.String(), "party-a adapted its model") {
		t.Errorf("transcript missing adaptation line:\n%s", out.String())
	}
}

// TestAuditAndPromEndpoints runs the daemon, drives decisions through
// /decide, and checks the observability surface built on them: /audit
// returns the decoded decision tail with generation, winning policy,
// effect and latency; /metrics/prom serves parseable Prometheus text
// exposition; the rolling-window decide percentiles appear in /metrics.
func TestAuditAndPromEndpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-parties", "2", "-metrics", "127.0.0.1:0"}, &out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var s string
	for time.Now().Before(deadline) {
		if s = out.String(); strings.Contains(s, "round complete") {
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited early (err=%v); output:\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	m := regexp.MustCompile(`metrics listening on (http://\S+)`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no metrics address in output:\n%s", s)
	}
	base := strings.TrimSuffix(m[1], "/metrics")

	// Drive decisions so the recorder and windows have data.
	for i := 0; i < 10; i++ {
		resp, err := http.Get(base + "/decide?party=party-a&action=image&action=teleport")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// /audit: decoded tail with the fields the acceptance criterion
	// names.
	aresp, err := http.Get(base + "/audit?party=party-a&n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /audit = %d", aresp.StatusCode)
	}
	if ct := aresp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/audit Content-Type = %q", ct)
	}
	var dump obs.AuditDump
	if err := json.NewDecoder(aresp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding /audit: %v", err)
	}
	if dump.Party != "party-a" || dump.Generation == 0 {
		t.Fatalf("audit header: party=%q generation=%d", dump.Party, dump.Generation)
	}
	if len(dump.Records) < 20 {
		t.Fatalf("audit tail has %d records, want >= 20 (10 batches of 2)", len(dump.Records))
	}
	sawPolicy := false
	for _, rec := range dump.Records {
		if rec.Generation == 0 {
			t.Fatalf("record missing generation: %+v", rec)
		}
		if rec.Effect == "" {
			t.Fatalf("record missing effect: %+v", rec)
		}
		if rec.Effect == "Deny" && rec.PolicyID == "withhold_image" {
			sawPolicy = true
			if rec.LatencyNs <= 0 {
				t.Fatalf("decided record missing latency: %+v", rec)
			}
		}
	}
	if !sawPolicy {
		t.Fatalf("no withhold_image denial decoded in tail: %+v", dump.Records)
	}

	// Audit error paths.
	if resp, err := http.Get(base + "/audit?party=party-zz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("audit unknown party = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(base + "/audit?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("audit bad n = %d, want 400", resp.StatusCode)
		}
	}

	// Prometheus exposition on the dedicated path and via ?format=prom.
	for _, url := range []string{base + "/metrics/prom", base + "/metrics?format=prom"} {
		presp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(presp.Body)
		presp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, presp.StatusCode)
		}
		if ct := presp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("%s Content-Type = %q", url, ct)
		}
		text := string(body)
		for _, want := range []string{
			"# TYPE engine_decisions_total counter",
			"engine_decisions_total ",
			"agenpd_decide_duration_seconds_count",
			`engine_decide_window_p99_seconds{window="10s"}`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("%s missing %q", url, want)
			}
		}
	}

	// 405 on mutation methods.
	if resp, err := http.Post(base+"/metrics/prom", "text/plain", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics/prom = %d, want 405", resp.StatusCode)
		}
	}

	// The rolling-window percentiles appear in the JSON snapshot and
	// have observed the decide traffic within the current window.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	win, ok := snap.Windows["agenpd.decide"]
	if !ok {
		t.Fatalf("agenpd.decide window missing from /metrics: %v", snap.Windows)
	}
	if win["10s"].Count == 0 || win["10s"].P99Ns == 0 {
		t.Fatalf("10s decide window empty after traffic: %+v", win["10s"])
	}
	if _, ok := snap.Windows["engine.decide"]; !ok {
		t.Fatalf("engine.decide window missing from /metrics")
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
}

// TestDecideEndpoint runs the daemon with -metrics and exercises the
// /decide endpoint: single and batched decisions served from the
// compiled engines, plus the error paths.
func TestDecideEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-parties", "3", "-metrics", "127.0.0.1:0"}, &out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var s string
	for time.Now().Before(deadline) {
		if s = out.String(); strings.Contains(s, "round complete") {
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited early (err=%v); output:\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	m := regexp.MustCompile(`metrics listening on (http://\S+)`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no metrics address in output:\n%s", s)
	}
	base := strings.TrimSuffix(m[1], "/metrics")

	get := func(url string) (*http.Response, decideResponse) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr decideResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
				t.Fatalf("decoding %s: %v", url, err)
			}
		}
		return resp, dr
	}

	// Batched decision under one snapshot. The action id is the object
	// phrase after the verb: "image" has both share_image (permit) and
	// withhold_image (deny) installed, so deny-overrides denies; an
	// unknown object is not applicable.
	resp, dr := get(base + "/decide?party=party-a&action=image&action=teleport")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /decide = %d", resp.StatusCode)
	}
	if dr.Party != "party-a" || len(dr.Results) != 2 {
		t.Fatalf("response = %+v", dr)
	}
	if dr.Generation == 0 {
		t.Error("generation = 0; engine never compiled")
	}
	if dr.Results[0].Decision != "Deny" || dr.Results[0].PolicyID != "withhold_image" {
		t.Errorf("image = %+v, want Deny by withhold_image", dr.Results[0])
	}
	if dr.Results[1].Decision != "NotApplicable" {
		t.Errorf("teleport = %+v, want NotApplicable", dr.Results[1])
	}

	// Default party is the lead.
	if _, def := get(base + "/decide?action=image"); def.Party != "party-a" {
		t.Errorf("default party = %q, want party-a", def.Party)
	}

	// Error paths.
	if resp, _ := get(base + "/decide?party=party-zz&action=x"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown party = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(base + "/decide?party=party-a"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing action = %d, want 400", resp.StatusCode)
	}

	// The /verify endpoint analyzes the live snapshot symbolically:
	// party-a holds share_image (permit) and withhold_image (deny) for
	// the same object, so the verifier reports a validated conflict.
	vresp, err := http.Get(base + "/verify?party=party-a")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /verify = %d", vresp.StatusCode)
	}
	var vr verifyResponse
	if err := json.NewDecoder(vresp.Body).Decode(&vr); err != nil {
		t.Fatalf("decoding /verify: %v", err)
	}
	if vr.Party != "party-a" || vr.Report == nil {
		t.Fatalf("verify response = %+v", vr)
	}
	if vr.OK {
		t.Errorf("share/withhold image pair should verify as conflicting: %+v", vr.Report)
	}
	foundConflict := false
	for _, f := range vr.Report.Findings {
		if f.Kind.String() == "cross-conflict" && f.Witness != "" {
			foundConflict = true
		}
	}
	if !foundConflict {
		t.Errorf("no witnessed cross-conflict in report: %+v", vr.Report.Findings)
	}
	if resp, err := http.Get(base + "/verify?party=party-zz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("verify unknown party = %d, want 404", resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
}

// TestStalledHeaderDisconnected: the telemetry server drops a client that
// sends part of a request header and then stalls.
func TestStalledHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler(), 100*time.Millisecond)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: agenpd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection well before this deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
}
