package intent

import (
	"strings"
	"testing"

	"agenp/internal/asg"
	"agenp/internal/asp"
)

const cavIntent = `
# Connected-vehicle driving policy.
policy: accept or reject task
task: overtake, park, lane_change
never accept overtake when weather is rain
never accept any task when threat is high
require loa of at least 3 to accept any task
`

func TestParseDocument(t *testing.T) {
	doc, err := Parse(cavIntent)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Verbs) != 2 || doc.Verbs[0] != "accept" || doc.Verbs[1] != "reject" {
		t.Errorf("verbs = %v", doc.Verbs)
	}
	if doc.Category != "task" || len(doc.Objects) != 3 {
		t.Errorf("category %q objects %v", doc.Category, doc.Objects)
	}
	if len(doc.Constraints) != 3 {
		t.Fatalf("constraints = %d", len(doc.Constraints))
	}
	c0 := doc.Constraints[0]
	if c0.Kind != NeverObjectWhen || c0.Verb != "accept" || c0.Object != "overtake" ||
		c0.Attr != "weather" || c0.Value != "rain" {
		t.Errorf("constraint 0 = %+v", c0)
	}
	c1 := doc.Constraints[1]
	if c1.Kind != NeverAnyWhen || c1.Attr != "threat" || c1.Value != "high" {
		t.Errorf("constraint 1 = %+v", c1)
	}
	c2 := doc.Constraints[2]
	if c2.Kind != RequireAtLeast || c2.Attr != "loa" || c2.Min != 3 || c2.Verb != "accept" {
		t.Errorf("constraint 2 = %+v", c2)
	}
}

func ctx(t *testing.T, src string) *asp.Program {
	t.Helper()
	p, err := asp.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompiledGrammarBehaviour(t *testing.T) {
	g, err := CompileSource(cavIntent)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		context string
		policy  string
		want    bool
	}{
		{name: "clear accept overtake", context: "weather(clear). threat(low). loa(5).", policy: "accept overtake", want: true},
		{name: "rain accept overtake", context: "weather(rain). threat(low). loa(5).", policy: "accept overtake", want: false},
		{name: "rain accept park", context: "weather(rain). threat(low). loa(5).", policy: "accept park", want: true},
		{name: "rain reject overtake", context: "weather(rain). threat(low). loa(5).", policy: "reject overtake", want: true},
		{name: "high threat accept park", context: "weather(clear). threat(high). loa(5).", policy: "accept park", want: false},
		{name: "high threat reject park", context: "weather(clear). threat(high). loa(5).", policy: "reject park", want: true},
		{name: "low loa accept", context: "weather(clear). threat(low). loa(2).", policy: "accept lane_change", want: false},
		{name: "loa exactly 3", context: "weather(clear). threat(low). loa(3).", policy: "accept lane_change", want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := g.WithContext(ctx(t, tt.context)).Accepts(strings.Fields(tt.policy))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Accepts(%q | %q) = %v, want %v", tt.policy, tt.context, got, tt.want)
			}
		})
	}
}

func TestCompiledGrammarGeneration(t *testing.T) {
	g, err := CompileSource(cavIntent)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.WithContext(ctx(t, "weather(rain). threat(low). loa(5).")).
		Generate(asg.GenerateOptions{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, o := range out {
		got[o.Text()] = true
	}
	if got["accept overtake"] {
		t.Error("accept overtake generated in rain")
	}
	for _, want := range []string{"accept park", "accept lane_change", "reject overtake"} {
		if !got[want] {
			t.Errorf("missing %q in %v", want, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "no policy statement", give: "task: a, b"},
		{name: "no category", give: "policy: allow or deny thing"},
		{name: "gibberish", give: "policy: allow thing\nthing: a\nfnord grep blub"},
		{name: "unknown verb in never", give: "policy: allow thing\nthing: a\nnever revoke a when x is y"},
		{name: "unknown object", give: "policy: allow thing\nthing: a\nnever allow b when x is y"},
		{name: "bad never shape", give: "policy: allow thing\nthing: a\nnever allow a when x equals y"},
		{name: "bad require number", give: "policy: allow thing\nthing: a\nrequire loa of at least many to allow any thing"},
		{name: "bad require shape", give: "policy: allow thing\nthing: a\nrequire loa minimum 3 to allow any thing"},
		{name: "empty category", give: "policy: allow thing\nthing:  ,  "},
		{name: "bad object ident", give: "policy: allow thing\nthing: a-b"},
		{name: "category mismatch", give: "policy: allow widget\nthing: a"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := CompileSource(tt.give); err == nil {
				t.Errorf("CompileSource(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestIntentRoundTripWithAMS(t *testing.T) {
	// The compiled grammar is a drop-in GPM.
	g, err := CompileSource(cavIntent)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.CFG.Productions) != 5 {
		t.Errorf("productions = %d, want 5 (2 verbs + 3 objects)", len(g.CFG.Productions))
	}
	// Verbs without constraints carry no annotation.
	if g.Annotations[1] != nil {
		t.Error("reject production should be unannotated")
	}
	if g.Annotations[0] == nil || len(g.Annotations[0].Rules) != 3 {
		t.Errorf("accept production should carry all 3 constraints")
	}
}
