package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunStdin(t *testing.T) {
	var out strings.Builder
	err := run(nil, strings.NewReader("a :- not b. b :- not a."), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Answer 1: {a}", "Answer 2: {b}", "SATISFIABLE (2 answer set(s))"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFileAndMaxModels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.lp")
	if err := os.WriteFile(path, []byte("{x; y}."), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-n", "2", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SATISFIABLE (2 answer set(s))") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunUnsat(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("p :- not p."), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "UNSATISFIABLE") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunGround(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-ground"}, strings.NewReader("p(a). q(X) :- p(X)."), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "q(a) :- p(a).") {
		t.Errorf("ground output:\n%s", out.String())
	}
}

// TestRunNonTight: the positive loop a/b is accepted only where it has
// external support, so the unfounded-set check must fire.
func TestRunNonTight(t *testing.T) {
	src := "a :- b. b :- a. a :- not c. c :- not a."
	var out strings.Builder
	if err := run(nil, strings.NewReader(src), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"{a, b}", "{c}", "SATISFIABLE (2 answer set(s))"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("p :-"), &out); err == nil {
		t.Error("parse error not reported")
	}
	if err := run([]string{"a", "b"}, nil, &out); err == nil {
		t.Error("extra args not rejected")
	}
	if err := run([]string{"/nonexistent/file.lp"}, nil, &out); err == nil {
		t.Error("missing file not reported")
	}
	if err := run([]string{"-budget", "1"}, strings.NewReader("{a;b;c;d;e}."), &out); err == nil {
		t.Error("budget exhaustion not reported")
	}
}
