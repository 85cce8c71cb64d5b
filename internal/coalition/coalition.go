// Package coalition implements the distributed policy-sharing layer of
// the paper (Sections III.A.3 and IV.D): multiple Autonomous Management
// Systems exchanging policies over a transport, in the community-based
// CASWiki style — each party vets incoming policies through its own
// Policy Checking Point before adopting them.
//
// Two transports are provided: an in-process bus for simulation and
// tests, and a TCP transport (JSON lines over net) for actually
// distributed deployments.
package coalition

import (
	"fmt"
	"sync"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/core"
	"agenp/internal/obs"
	"agenp/internal/policy"
)

// SharedPolicy is a policy in flight between coalition parties.
type SharedPolicy struct {
	// From names the publishing party.
	From string `json:"from"`
	// ID is the policy id at the publisher.
	ID string `json:"id"`
	// Tokens is the policy string.
	Tokens []string `json:"tokens"`
}

// Transport moves shared policies between parties.
type Transport interface {
	// Publish broadcasts a policy to every other party.
	Publish(sp SharedPolicy) error
	// Subscribe returns a channel of policies published by other
	// parties (the subscriber's own publications are filtered out) and
	// a cancel function.
	Subscribe(name string, buffer int) (<-chan SharedPolicy, func(), error)
	// Close shuts the transport down.
	Close() error
}

// Bus is an in-process Transport. It is also the one subscriber fan-out:
// TCPTransport delivers what it reads from its hub through a Bus it owns.
type Bus struct {
	mu     sync.Mutex
	subs   map[string][]chan SharedPolicy
	closed bool
}

var _ Transport = (*Bus)(nil)

// NewBus builds an in-process transport.
func NewBus() *Bus {
	return &Bus{subs: make(map[string][]chan SharedPolicy)}
}

// Publish implements Transport.
func (b *Bus) Publish(sp SharedPolicy) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("coalition: bus closed")
	}
	for name, chans := range b.subs {
		if name == sp.From {
			continue
		}
		for _, ch := range chans {
			select {
			case ch <- sp:
			default: // slow subscriber: drop rather than block the bus
				statDropped.Inc()
			}
		}
	}
	return nil
}

// Subscribe implements Transport.
func (b *Bus) Subscribe(name string, buffer int) (<-chan SharedPolicy, func(), error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, fmt.Errorf("coalition: bus closed")
	}
	ch := make(chan SharedPolicy, buffer)
	b.subs[name] = append(b.subs[name], ch)
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		chans := b.subs[name]
		for i, c := range chans {
			if c == ch {
				b.subs[name] = append(chans[:i], chans[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, cancel, nil
}

// Close implements Transport.
func (b *Bus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, chans := range b.subs {
		for _, ch := range chans {
			close(ch)
		}
	}
	b.subs = make(map[string][]chan SharedPolicy)
	return nil
}

// Party is one coalition member: an AMS connected to a transport.
type Party struct {
	AMS *agenp.AMS

	transport Transport
	incoming  <-chan SharedPolicy
	cancel    func()
	done      chan struct{}

	mu       sync.Mutex
	imported int
	rejected int
}

// Join connects an AMS to the coalition transport and starts consuming
// shared policies in the background; each incoming policy is vetted by
// the AMS's PCP (ImportShared). Call Leave to disconnect.
func Join(ams *agenp.AMS, t Transport) (*Party, error) {
	ch, cancel, err := t.Subscribe(ams.Name(), 64)
	if err != nil {
		return nil, err
	}
	p := &Party{
		AMS:       ams,
		transport: t,
		incoming:  ch,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go p.consume()
	return p, nil
}

func (p *Party) consume() {
	defer close(p.done)
	for sp := range p.incoming {
		t0 := time.Now()
		// ImportShared keys the policy by its text; the publisher's ID is
		// not trusted, here or in the audit event below.
		err := p.AMS.ImportShared(policy.Policy{Tokens: sp.Tokens}, sp.From)
		statVetDur.ObserveSince(t0)
		p.mu.Lock()
		if err != nil {
			p.rejected++
			statRejected.Inc()
		} else {
			p.imported++
			statAdopted.Inc()
		}
		p.mu.Unlock()
		// Adopted-policy imports are audit events: they change what the
		// decision path will serve, so the flight recorder keeps them
		// alongside decision anomalies.
		if rec := p.AMS.Recorder(); rec != nil {
			kind := uint8(obs.EventImportAdopted)
			if err != nil {
				kind = obs.EventImportRejected
			}
			rec.Event(kind, core.PolicyID(sp.Tokens), p.AMS.Engine().Generation(), time.Since(t0))
		}
	}
}

// SharePolicies publishes the party's current generated policies to the
// coalition. It iterates the repository's immutable snapshot directly —
// one consistent generation, no copy.
func (p *Party) SharePolicies() error {
	for _, pol := range p.AMS.Repository().Snapshot().Policies {
		if pol.Source == policy.SourceShared {
			continue // don't re-broadcast other parties' policies
		}
		sp := SharedPolicy{From: p.AMS.Name(), ID: pol.ID, Tokens: pol.Tokens}
		if err := p.transport.Publish(sp); err != nil {
			return fmt.Errorf("coalition: sharing %s: %w", pol.ID, err)
		}
		statPublished.Inc()
	}
	return nil
}

// ImportStats reports how many shared policies were adopted vs rejected
// by the PCP.
func (p *Party) ImportStats() (imported, rejected int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.imported, p.rejected
}

// Leave disconnects the party and waits for the consumer to stop.
func (p *Party) Leave() {
	p.cancel()
	<-p.done
}
