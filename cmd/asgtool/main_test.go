package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeGrammar(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.asg")
	src := `
policy -> "fly" { :- not weather(clear). }
policy -> "drive"
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestShow(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-grammar", writeGrammar(t), "show"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `policy -> "fly"`) {
		t.Errorf("show output:\n%s", out.String())
	}
}

// TestShowContext pins `show -context` to G(C) with C under every
// production, whether G(C) shares a fact context or copies one that
// holds a rule.
func TestShowContext(t *testing.T) {
	for _, tt := range []struct{ context, want string }{
		{
			context: "weather(clear). crew(2).",
			want: `policy -> "fly" {
  :- not weather(clear).
  weather(clear).
  crew(2).
}
policy -> "drive" {
  weather(clear).
  crew(2).
}
`,
		},
		{
			context: "season(summer). weather(clear) :- season(summer).",
			want: `policy -> "fly" {
  :- not weather(clear).
  season(summer).
  weather(clear) :- season(summer).
}
policy -> "drive" {
  season(summer).
  weather(clear) :- season(summer).
}
`,
		},
	} {
		var out strings.Builder
		if err := run([]string{"-grammar", writeGrammar(t), "-context", tt.context, "show"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != tt.want {
			t.Errorf("show -context %q:\n%s\nwant:\n%s", tt.context, out.String(), tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	g := writeGrammar(t)
	var out strings.Builder
	// weather/1 is context-supplied: a warning without -context, quiet
	// with one.
	if err := run([]string{"-grammar", g, "validate"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "asg-underivable") {
		t.Errorf("validate output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-grammar", g, "-context", "weather(clear).", "validate"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "asg-underivable") {
		t.Errorf("context not honoured by validate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 errors") {
		t.Errorf("missing summary line:\n%s", out.String())
	}

	// A grammar with an unsafe annotation variable fails validation.
	bad := filepath.Join(t.TempDir(), "bad.asg")
	if err := os.WriteFile(bad, []byte("policy -> \"fly\" { grant(X). }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-grammar", bad, "validate"}, &out); err == nil {
		t.Errorf("unsafe annotation accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unsafe-var") {
		t.Errorf("validate output:\n%s", out.String())
	}
}

func TestCheck(t *testing.T) {
	g := writeGrammar(t)
	var out strings.Builder
	if err := run([]string{"-grammar", g, "-context", "weather(clear).", "check", "fly"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VALID") {
		t.Errorf("check output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-grammar", g, "check", "fly"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "INVALID") {
		t.Errorf("check output:\n%s", out.String())
	}
}

func TestGenerate(t *testing.T) {
	g := writeGrammar(t)
	var out strings.Builder
	if err := run([]string{"-grammar", g, "generate"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "drive") || strings.Contains(s, "fly\n") {
		t.Errorf("generate output:\n%s", s)
	}
	out.Reset()
	if err := run([]string{"-grammar", g, "-context", "weather(clear).", "generate"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fly") {
		t.Errorf("generate with context:\n%s", out.String())
	}
}

func TestContextFromFile(t *testing.T) {
	g := writeGrammar(t)
	ctxPath := filepath.Join(t.TempDir(), "ctx.lp")
	if err := os.WriteFile(ctxPath, []byte("weather(clear)."), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-grammar", g, "-context", ctxPath, "check", "fly"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VALID") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestIntentCompilation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent.txt")
	doc := "policy: allow or block tool\ntool: saw, drill\nnever allow saw when shift is night\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-intent", path, "show"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `policy -> "allow" tool`) {
		t.Errorf("compiled grammar:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-intent", path, "-context", "shift(night).", "check", "allow saw"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "INVALID") {
		t.Errorf("check output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"show"}, &out); err == nil {
		t.Error("missing -grammar not rejected")
	}
	if err := run([]string{"-grammar", "a", "-intent", "b", "show"}, &out); err == nil {
		t.Error("mutually exclusive flags not rejected")
	}
	if err := run([]string{"-intent", "/nope.txt", "show"}, &out); err == nil {
		t.Error("missing intent file not rejected")
	}
	if err := run([]string{"-grammar", "/nope.asg", "show"}, &out); err == nil {
		t.Error("missing grammar file not rejected")
	}
	g := writeGrammar(t)
	if err := run([]string{"-grammar", g, "check"}, &out); err == nil {
		t.Error("check without string not rejected")
	}
	if err := run([]string{"-grammar", g, "frobnicate"}, &out); err == nil {
		t.Error("unknown subcommand not rejected")
	}
	if err := run([]string{"-grammar", g, "-context", "not valid asp", "show"}, &out); err == nil {
		t.Error("bad context not rejected")
	}
}
