package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/coalition"
	"agenp/internal/core"
	"agenp/internal/policy"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

// shareEnv is one party's context: the partner trust level and the
// data quality on offer.
type shareEnv struct {
	Trust   string
	Quality int
}

// shareValid is the hand-written meaning of the datashare grammar: a
// "withhold t" policy is always valid; "share t" is valid unless trust
// is low, the data is signals intelligence and trust is not high, or the
// quality is below 3.
func shareValid(e shareEnv, verb, dtype string) bool {
	if verb == "withhold" {
		return true
	}
	return e.Trust != "low" && !(dtype == "sigint" && e.Trust != "high") && e.Quality >= 3
}

// shareExpected is the policy set the datashare GPM generates in a
// context.
func shareExpected(valid func(shareEnv, string, string) bool, e shareEnv) map[string]bool {
	want := make(map[string]bool)
	for _, verb := range []string{"share", "withhold"} {
		for _, t := range datashare.DataTypes {
			if valid(e, verb, t) {
				want[verb+" "+t] = true
			}
		}
	}
	return want
}

// checkAdopted verifies a share: the peer adopted exactly the shared
// policies valid under its own context, and its repository still holds
// exactly the policies its context generates.
func checkAdopted(shared []string, adopted []string, peerRepo []string, valid func(shareEnv, string, string) bool, peer shareEnv) error {
	want := make(map[string]bool)
	for _, s := range shared {
		var verb, dtype string
		if _, err := fmt.Sscan(s, &verb, &dtype); err != nil {
			return fmt.Errorf("shared policy %q: %v", s, err)
		}
		if valid(peer, verb, dtype) {
			want[s] = true
		}
	}
	got := make(map[string]bool)
	for _, a := range adopted {
		if !want[a] {
			return fmt.Errorf("peer adopted %q, invalid under %+v", a, peer)
		}
		got[a] = true
	}
	for w := range want {
		if !got[w] {
			return fmt.Errorf("peer did not adopt %q, valid under %+v", w, peer)
		}
	}
	return checkPolicySet(peerRepo, shareExpected(valid, peer))
}

// checkDecisions compares served decisions with the token interpreter's
// over the same repository and returns how many agree.
func checkDecisions(got []xacml.Decision, reqs []xacml.Request, in *agenp.TokenInterpreter, repo []policy.Policy) (int, error) {
	agree := 0
	var first error
	for i, r := range reqs {
		want, _ := in.Decide(repo, r)
		if got[i] == want {
			agree++
		} else if first == nil {
			a, _ := r.Get(xacml.Action, "id")
			first = fmt.Errorf("decision %d (%s) = %v, interpreter says %v", i, a.String(), got[i], want)
		}
	}
	return agree, first
}

const settleTimeout = time.Second

func shareInterpreter() *agenp.TokenInterpreter {
	return &agenp.TokenInterpreter{PermitVerbs: []string{"share"}, DenyVerbs: []string{"withhold"}}
}

// shareParty is one coalition member and its switchable context.
type shareParty struct {
	party     *coalition.Party
	transport *coalition.TCPTransport
	ctx       *switchContext
	env       shareEnv
	decisions []xacml.Decision
}

// shareWorkload runs §III.A.3/§IV.D policy sharing between two parties
// over a loopback TCP hub.
type shareWorkload struct {
	hub      *coalition.TCPHub
	lead     *shareParty
	peer     *shareParty
	contexts map[shareEnv]*asp.Program
	requests []xacml.Request
	rng      *workload.RNG
	interp   *agenp.TokenInterpreter // reference for the decision checks

	// peerEvents reports the peer repository's changes; the buffer holds
	// more than one round's adoptions.
	peerEvents  <-chan policy.Event
	unsubscribe func()
}

func newShare() (runner, error) {
	w := &shareWorkload{contexts: make(map[shareEnv]*asp.Program), interp: shareInterpreter()}
	for _, t := range datashare.TrustLevels {
		for _, q := range datashare.QualityLevels {
			e := shareEnv{Trust: t, Quality: q}
			w.contexts[e] = datashare.Offer{Trust: t, Quality: q}.EnvContext()
		}
	}
	// Each party serves decidePasses passes over every data type plus one
	// unknown action per round.
	for i := 0; i < decidePasses; i++ {
		for _, t := range append(append([]string(nil), datashare.DataTypes...), "exfiltrate") {
			w.requests = append(w.requests, xacml.NewRequest().Set(xacml.Action, "id", xacml.S(t)))
		}
	}
	hub, err := coalition.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.hub = hub
	for _, name := range []string{"lead", "peer"} {
		p, err := w.join(name)
		if err != nil {
			w.close()
			return nil, err
		}
		if name == "lead" {
			w.lead = p
		} else {
			w.peer = p
		}
	}
	w.peerEvents, w.unsubscribe = w.peer.party.AMS.Repository().Subscribe(64)
	return w, nil
}

// join starts a party configured as cmd/agenpd configures its parties.
func (w *shareWorkload) join(name string) (*shareParty, error) {
	model, err := core.ParseGPM(datashare.GrammarSource)
	if err != nil {
		return nil, err
	}
	sp := &shareParty{ctx: &switchContext{}, decisions: make([]xacml.Decision, len(w.requests))}
	ams, err := agenp.New(agenp.Config{
		Name:           name,
		Model:          model,
		Space:          datashare.HypothesisSpace(),
		Context:        sp.ctx,
		Interpreter:    shareInterpreter(),
		AdaptThreshold: 2,
	})
	if err != nil {
		return nil, err
	}
	sp.transport, err = coalition.DialTCP(w.hub.Addr())
	if err != nil {
		return nil, err
	}
	sp.party, err = coalition.Join(ams, sp.transport)
	if err != nil {
		_ = sp.transport.Close()
		return nil, err
	}
	return sp, nil
}

func (w *shareWorkload) restart(seed uint64) {
	w.rng = workload.NewRNG(seed)
	w.lead.env, w.peer.env = shareEnv{}, shareEnv{}
}

// step runs one round: both parties switch context and regenerate, the
// lead shares, the peer settles every shared policy, and both serve a
// batch of decisions.
func (w *shareWorkload) step(m *meter) {
	for _, p := range []*shareParty{w.lead, w.peer} {
		prev := p.env
		for p.env == prev {
			p.env = shareEnv{Trust: workload.Pick(w.rng, datashare.TrustLevels), Quality: workload.Pick(w.rng, datashare.QualityLevels)}
		}
		p.ctx.set(w.contexts[p.env])
		o := m.begin(opRegen, 1)
		c := o.child()
		_, _, err := p.party.AMS.Regenerate()
		o.endChild(c, "agenp.AMS.Regenerate")
		if err != nil {
			m.fail(opRegen, "Regenerate: %v", err)
			return
		}
		o.end(1)
		m.check(opRegen, checkPolicySet(policyTexts(p.party.AMS), shareExpected(shareValid, p.env)))
	}

	var shared []string
	lastAdopted := ""
	for _, p := range w.lead.party.AMS.Repository().List() {
		shared = append(shared, p.Text())
		if shareValid(w.peer.env, p.Tokens[0], p.Tokens[1]) {
			lastAdopted = p.ID
		}
	}
	for len(w.peerEvents) > 0 {
		<-w.peerEvents
	}
	imp0, rej0 := w.peer.party.ImportStats()
	o := m.begin(opShare, 1)
	m.attempted[opShare] += len(shared)
	c := o.child()
	err := w.lead.party.SharePolicies()
	o.endChild(c, "coalition.Party.SharePolicies")
	if err != nil {
		m.fail(opShare, "SharePolicies: %v", err)
		return
	}
	c = o.child()
	settled := w.settle(imp0+rej0, len(shared), lastAdopted)
	o.endChild(c, "peer.settle")
	if settled < len(shared) {
		m.unsettled += len(shared) - settled
		for i := settled; i < len(shared); i++ {
			m.fail(opShare, "shared policy unsettled after %v", settleTimeout)
		}
		return
	}
	o.end(1)
	var adopted []string
	for _, p := range w.peer.party.AMS.Repository().List() {
		if p.Source == policy.SourceShared && p.Origin == "lead" {
			adopted = append(adopted, p.Text())
		}
	}
	sort.Strings(adopted)
	m.check(opShare, checkAdopted(shared, adopted, policyTexts(w.peer.party.AMS), shareValid, w.peer.env))

	for _, p := range []*shareParty{w.lead, w.peer} {
		ams := p.party.AMS
		o := m.begin(opDecide, len(w.requests))
		c := o.child()
		var err error
		for i, r := range w.requests {
			if p.decisions[i], _, err = ams.Decide(r); err != nil {
				break
			}
		}
		o.endChild(c, "agenp.AMS.Decide", callsAttr(len(w.requests)))
		o.end(len(w.requests))
		if err != nil {
			m.fail(opDecide, "Decide: %v", err)
			continue
		}
		agree, err := checkDecisions(p.decisions, w.requests, w.interp, ams.Repository().List())
		m.check(opDecide, err)
		m.accuracy = append(m.accuracy, float64(agree)/float64(len(w.requests)))
	}
}

// settle waits until the peer has adopted or rejected want more shared
// policies than base, or settleTimeout passes, and returns how many it
// settled.
//
// The peer imports in sharing order, so the driver first parks until the
// peer's repository reports the last policy expected to be adopted, then
// yields until the import counts catch up. Parking lets the scheduler run
// the transport and import goroutines and poll the network; yielding
// avoids the timer granularity (about 1 ms) a sleeping poll would add to
// every share.
func (w *shareWorkload) settle(base, want int, lastAdopted string) int {
	deadline := time.Now().Add(settleTimeout)
	if lastAdopted != "" {
		timer := time.NewTimer(settleTimeout)
	wait:
		for {
			select {
			case ev := <-w.peerEvents:
				if ev.Kind == "put" && ev.Policy.ID == lastAdopted {
					break wait
				}
			case <-timer.C:
				break wait
			}
		}
		timer.Stop()
	}
	for {
		imp, rej := w.peer.party.ImportStats()
		if n := imp + rej - base; n >= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// close stops both parties, their transports, and the hub, waiting for
// every goroutine they started.
func (w *shareWorkload) close() {
	if w.unsubscribe != nil {
		w.unsubscribe()
	}
	for _, p := range []*shareParty{w.peer, w.lead} {
		if p == nil {
			continue
		}
		p.party.Leave()
		_ = p.transport.Close()
	}
	if w.hub != nil {
		_ = w.hub.Close()
	}
}
