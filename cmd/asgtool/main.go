// Command asgtool works with answer set grammars: it checks membership
// of policy strings, generates the (bounded) language of a grammar under
// a context, and pretty-prints grammars.
//
// Usage:
//
//	asgtool -grammar g.asg show
//	asgtool -grammar g.asg validate          # static analysis (aspcheck)
//	asgtool -grammar g.asg [-context "weather(rain)."] check "accept overtake"
//	asgtool -grammar g.asg [-context ctx.lp] generate [-max-nodes 16]
//	asgtool -intent policy.txt show          # compile controlled English
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/aspcheck"
	"agenp/internal/intent"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asgtool:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("asgtool", flag.ContinueOnError)
	grammarPath := fs.String("grammar", "", "path to the .asg grammar file")
	intentPath := fs.String("intent", "", "path to a controlled-English intent document to compile instead of -grammar")
	contextArg := fs.String("context", "", "ASP context: inline program or path to a file")
	maxNodes := fs.Int("max-nodes", 16, "derivation-tree size bound for generate")
	maxStrings := fs.Int("max-strings", 0, "cap on generated policies (0 = all within max-nodes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *asg.Grammar
	switch {
	case *grammarPath != "" && *intentPath != "":
		return fmt.Errorf("-grammar and -intent are mutually exclusive")
	case *grammarPath != "":
		src, err := os.ReadFile(*grammarPath)
		if err != nil {
			return err
		}
		g, err = asg.ParseASG(string(src))
		if err != nil {
			return err
		}
	case *intentPath != "":
		src, err := os.ReadFile(*intentPath)
		if err != nil {
			return err
		}
		g, err = intent.CompileSource(string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -grammar or -intent is required")
	}
	ctx, err := loadContext(*contextArg)
	if err != nil {
		return err
	}
	bare := g
	g = g.WithContext(ctx)

	switch cmd := fs.Arg(0); cmd {
	case "show", "":
		fmt.Fprint(stdout, g.String())
		return nil
	case "validate":
		// Lint the grammar as written (not the G(C) merge) so finding
		// positions stay in the source file's coordinates; the context's
		// predicates still count as derivable.
		var lintCtx *asp.Program
		if ctx != nil && len(ctx.Rules) > 0 {
			lintCtx = ctx
		}
		findings := aspcheck.AnalyzeGrammarWithContext(bare, lintCtx)
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
		fmt.Fprintln(stdout, findings.Summary())
		if findings.HasErrors() {
			return fmt.Errorf("grammar has errors")
		}
		return nil
	case "check":
		if fs.NArg() < 2 {
			return fmt.Errorf("check needs a policy string argument")
		}
		tokens := strings.Fields(fs.Arg(1))
		ok, err := g.Accepts(tokens)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(stdout, "VALID: %q is in L(G(C))\n", fs.Arg(1))
		} else {
			fmt.Fprintf(stdout, "INVALID: %q is not in L(G(C))\n", fs.Arg(1))
		}
		return nil
	case "generate":
		out, err := g.Generate(asg.GenerateOptions{MaxNodes: *maxNodes, MaxStrings: *maxStrings})
		if err != nil {
			return err
		}
		for _, p := range out {
			fmt.Fprintln(stdout, p.Text())
		}
		fmt.Fprintf(stdout, "%% %d valid polic(ies) within %d nodes\n", len(out), *maxNodes)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want show, validate, check or generate)", cmd)
	}
}

func loadContext(arg string) (*asp.Program, error) {
	if arg == "" {
		return asp.NewProgram(), nil
	}
	if data, err := os.ReadFile(arg); err == nil {
		return asp.Parse(string(data))
	}
	return asp.Parse(arg)
}
