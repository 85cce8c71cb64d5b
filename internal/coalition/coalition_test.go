package coalition

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/obs"
	"agenp/internal/policy"
)

const drivingGrammar = `
policy -> "accept" task
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

// rainConstrained builds a grammar whose accept-production carries the
// rain constraint already (a "learned" model).
const rainConstrained = `
policy -> "accept" task { :- task(overtake)@2, weather(rain). }
policy -> "reject" task
task -> "overtake" { task(overtake). }
task -> "park" { task(park). }
`

func newAMS(t *testing.T, name, grammar, ctxSrc string) *agenp.AMS {
	t.Helper()
	model, err := core.ParseGPM(grammar)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := asp.Parse(ctxSrc)
	if err != nil {
		t.Fatal(err)
	}
	ams, err := agenp.New(agenp.Config{
		Name:        name,
		Model:       model,
		Context:     &agenp.StaticContext{Program: ctx},
		Interpreter: &agenp.TokenInterpreter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ams
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBusSharingBetweenParties(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()

	a := newAMS(t, "a", drivingGrammar, "weather(clear).")
	b := newAMS(t, "b", drivingGrammar, "weather(clear).")
	if _, _, err := a.Regenerate(); err != nil {
		t.Fatal(err)
	}
	// b generates nothing yet; it will adopt a's policies.
	pa, err := Join(a, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Leave()
	pb, err := Join(b, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Leave()

	if err := pa.SharePolicies(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to import 4 policies", func() bool {
		imported, _ := pb.ImportStats()
		return imported == 4
	})
	if b.Repository().Len() != 4 {
		t.Errorf("b repository = %d", b.Repository().Len())
	}
	p, ok := b.Repository().Get("accept_overtake")
	if !ok || p.Source != policy.SourceShared || p.Origin != "a" {
		t.Errorf("shared policy = %+v, %v", p, ok)
	}
	// a did not receive its own publications.
	importedA, _ := pa.ImportStats()
	if importedA != 0 {
		t.Errorf("a imported its own policies: %d", importedA)
	}
}

func TestPCPRejectsSharedPoliciesInvalidLocally(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()

	// a operates in clear weather with the plain grammar; b has the
	// rain-constrained model and rainy weather, so accept_overtake must
	// be rejected by b's PCP while other policies are adopted.
	a := newAMS(t, "a", drivingGrammar, "weather(clear).")
	b := newAMS(t, "b", rainConstrained, "weather(rain).")
	if _, _, err := a.Regenerate(); err != nil {
		t.Fatal(err)
	}
	pa, err := Join(a, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Leave()
	pb, err := Join(b, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Leave()

	if err := pa.SharePolicies(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to process 4 policies", func() bool {
		imported, rejected := pb.ImportStats()
		return imported+rejected == 4
	})
	imported, rejected := pb.ImportStats()
	if imported != 3 || rejected != 1 {
		t.Errorf("imported=%d rejected=%d, want 3/1", imported, rejected)
	}
	if _, ok := b.Repository().Get("accept_overtake"); ok {
		t.Error("accept_overtake adopted despite rain constraint")
	}
}

func TestSharePoliciesSkipsSharedOnes(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	a := newAMS(t, "a", drivingGrammar, "weather(clear).")
	a.Repository().Put(policy.Policy{ID: "x", Tokens: []string{"accept", "park"}, Source: policy.SourceShared, Origin: "c"})
	a.Repository().Put(policy.Policy{ID: "y", Tokens: []string{"reject", "park"}, Source: policy.SourceGenerated})

	b := newAMS(t, "b", drivingGrammar, "weather(clear).")
	pa, _ := Join(a, bus)
	defer pa.Leave()
	pb, _ := Join(b, bus)
	defer pb.Leave()
	if err := pa.SharePolicies(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to import 1", func() bool {
		imported, _ := pb.ImportStats()
		return imported == 1
	})
	if _, ok := b.Repository().Get("x"); ok {
		t.Error("re-broadcast of shared policy")
	}
}

func TestBusClosedErrors(t *testing.T) {
	bus := NewBus()
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(SharedPolicy{From: "a"}); err == nil {
		t.Error("publish on closed bus should fail")
	}
	if _, _, err := bus.Subscribe("a", 1); err == nil {
		t.Error("subscribe on closed bus should fail")
	}
	if err := bus.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

// droppedCount reads the exported drop counter by name.
func droppedCount() int64 {
	return obs.Default.Snapshot().Counters["coalition.policies.dropped"]
}

// TestBusDropCounted: a subscriber whose buffer is full loses later
// publishes, and each loss is counted.
func TestBusDropCounted(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	ch, _, err := bus.Subscribe("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	before := droppedCount()
	for i := 0; i < 3; i++ {
		if err := bus.Publish(SharedPolicy{From: "a", ID: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ch); got != 1 {
		t.Errorf("subscriber holds %d policies, want 1", got)
	}
	if got := droppedCount() - before; got != 2 {
		t.Errorf("coalition.policies.dropped rose by %d, want 2", got)
	}
}

// TestTCPDropCounted: the same over TCP, where the transport's reader
// drops what the subscriber's full buffer cannot take.
func TestTCPDropCounted(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	ta, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	ch, _, err := tb.Subscribe("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	before := droppedCount()
	for i := 0; i < 5; i++ {
		if err := ta.Publish(SharedPolicy{From: "a", ID: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "4 counted drops", func() bool { return droppedCount()-before >= 4 })
	if got := droppedCount() - before; got != 4 {
		t.Errorf("coalition.policies.dropped rose by %d, want 4", got)
	}
	if got := len(ch); got != 1 {
		t.Errorf("subscriber holds %d policies, want 1", got)
	}
}

// frameCount reads a coalition.frames counter by name.
func frameCount(name string) int64 {
	return obs.Default.Snapshot().Counters["coalition.frames."+name]
}

// dialRaw connects to a hub as a bare peer and reads its hello line.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := readHello(conn, bufio.NewScanner(conn)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTCPMalformedFrameCounted: the hub relays a line that does not
// decode; the receiving transport skips it, counts it, and still
// delivers the valid frame behind it.
func TestTCPMalformedFrameCounted(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	tb, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	ch, _, err := tb.Subscribe("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := dialRaw(t, hub.Addr())
	before := frameCount("malformed")
	if _, err := io.WriteString(raw, "{not json\n"+`{"from":"a","id":"p1"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case sp := <-ch:
		if sp.ID != "p1" {
			t.Fatalf("received %q, want p1", sp.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the valid frame behind a malformed one never arrived")
	}
	// Frames are read in order: the malformed one was handled first.
	if got := frameCount("malformed") - before; got != 1 {
		t.Errorf("coalition.frames.malformed rose by %d, want 1", got)
	}
}

// TestTCPOversizeFrameCounted: a line over maxFrameBytes ends the
// connection it arrives on, and is counted, at the hub and at a
// transport.
func TestTCPOversizeFrameCounted(t *testing.T) {
	oversize := append(bytes.Repeat([]byte("x"), maxFrameBytes+10), '\n')
	t.Run("hub", func(t *testing.T) {
		hub, err := NewTCPHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = hub.Close() }()
		raw := dialRaw(t, hub.Addr())
		before := frameCount("oversize")
		if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The hub may close the connection before the write completes.
		_, _ = raw.Write(oversize)
		if _, err := raw.Read(make([]byte, 1)); err == nil {
			t.Error("the hub kept the connection open after an oversize line")
		}
		waitFor(t, "a counted oversize frame", func() bool { return frameCount("oversize")-before == 1 })
	})
	t.Run("transport", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ln.Close() }()
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = conn.Close() }()
			_, _ = conn.Write(append([]byte(hubHello+"\n"), oversize...))
			// Hold the connection until the transport ends it.
			_, _ = conn.Read(make([]byte, 1))
		}()
		before := frameCount("oversize")
		tr, err := DialTCP(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a counted oversize frame", func() bool { return frameCount("oversize")-before == 1 })
		if _, _, err := tr.Subscribe("b", 1); err == nil {
			t.Error("the transport's bus stayed open after an oversize line")
		}
		_ = tr.Close()
		<-served
	})
}

func TestTCPTransportEndToEnd(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	ta, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()

	a := newAMS(t, "a", drivingGrammar, "weather(clear).")
	b := newAMS(t, "b", drivingGrammar, "weather(clear).")
	if _, _, err := a.Regenerate(); err != nil {
		t.Fatal(err)
	}
	pa, err := Join(a, ta)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Leave()
	pb, err := Join(b, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Leave()

	if err := pa.SharePolicies(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to import 4 policies over TCP", func() bool {
		imported, _ := pb.ImportStats()
		return imported == 4
	})
	if b.Repository().Len() != 4 {
		t.Errorf("b repository = %d", b.Repository().Len())
	}
}

func TestTCPThreeParties(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	names := []string{"a", "b", "c"}
	parties := make([]*Party, len(names))
	amss := make([]*agenp.AMS, len(names))
	for i, n := range names {
		tr, err := DialTCP(hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		amss[i] = newAMS(t, n, drivingGrammar, "weather(clear).")
		parties[i], err = Join(amss[i], tr)
		if err != nil {
			t.Fatal(err)
		}
		defer parties[i].Leave()
	}
	if _, _, err := amss[0].Regenerate(); err != nil {
		t.Fatal(err)
	}
	if err := parties[0].SharePolicies(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		i := i
		waitFor(t, "import at party "+names[i], func() bool {
			imported, _ := parties[i].ImportStats()
			return imported == 4
		})
	}
}

// TestTCPDialThenPublish publishes the moment two transports have
// dialled: the hub must already relay to the second one, or the policy
// is lost for good.
func TestTCPDialThenPublish(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	for round := 0; round < 300; round++ {
		ta, err := DialTCP(hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		tb, err := DialTCP(hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch, _, err := tb.Subscribe("b", 1)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("p%d", round)
		if err := ta.Publish(SharedPolicy{From: "a", ID: id}); err != nil {
			t.Fatal(err)
		}
		select {
		case sp := <-ch:
			if sp.ID != id {
				t.Fatalf("round %d: received %q, want %q", round, sp.ID, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: policy published right after dialling never arrived", round)
		}
		_ = ta.Close()
		_ = tb.Close()
	}
}

func TestTCPPublishAfterHubClose(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	// Publishing into a closed hub eventually errors (TCP buffering may
	// delay the first failure).
	deadline := time.Now().Add(2 * time.Second)
	var pubErr error
	for time.Now().Before(deadline) {
		if pubErr = tr.Publish(SharedPolicy{From: "a", ID: "x"}); pubErr != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pubErr == nil {
		t.Error("publish kept succeeding after hub close")
	}
}
