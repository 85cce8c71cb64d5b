// Command asolve is the ASP solver CLI: it reads an answer set program
// from a file (or stdin) and prints its answer sets, standing in for the
// clingo binary the paper's framework shells out to.
//
// Usage:
//
//	asolve [-n max] [-ground] [-plan] [program.lp]
//	echo "a :- not b. b :- not a." | asolve -n 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"agenp/internal/asp"
	"agenp/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asolve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("asolve", flag.ContinueOnError)
	maxModels := fs.Int("n", 0, "maximum number of answer sets to print (0 = all)")
	showGround := fs.Bool("ground", false, "print the ground program instead of solving")
	showPlan := fs.Bool("plan", false, "print the compiled grounding plans (join orders and lowered ops) instead of solving")
	maxDecisions := fs.Int64("budget", 0, "abort after this many search decisions (0 = unlimited)")
	stats := fs.Bool("stats", false, "dump the telemetry registry to stderr on exit (includes solver conflicts, backjumps, and learned nogoods)")
	trace := fs.String("trace", "", "write span trace as JSON lines to this file (see agenptrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != "" {
		stop, err := obs.StartTrace(*trace)
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
	}
	if *stats {
		defer func() { _ = obs.Default.Snapshot().WriteText(os.Stderr) }()
	}

	var (
		src []byte
		err error
	)
	switch fs.NArg() {
	case 0:
		src, err = io.ReadAll(stdin)
	case 1:
		src, err = os.ReadFile(fs.Arg(0))
	default:
		return fmt.Errorf("expected at most one program file, got %d", fs.NArg())
	}
	if err != nil {
		return err
	}

	prog, err := asp.Parse(string(src))
	if err != nil {
		return err
	}
	if *showPlan {
		_, plans, err := asp.GroundWithPlans(prog, asp.GroundingOptions{})
		if err != nil {
			return err
		}
		for _, pi := range plans {
			fmt.Fprint(stdout, pi.String())
		}
		return nil
	}
	ground, err := asp.Ground(prog, asp.GroundingOptions{})
	if err != nil {
		return err
	}
	if *showGround {
		fmt.Fprint(stdout, ground.String())
		return nil
	}
	models, err := asp.SolveGround(ground, asp.SolveOptions{
		MaxModels:    *maxModels,
		MaxDecisions: *maxDecisions,
	})
	if err != nil {
		return err
	}
	if len(models) == 0 {
		fmt.Fprintln(stdout, "UNSATISFIABLE")
		return nil
	}
	for i, m := range models {
		fmt.Fprintf(stdout, "Answer %d: %s\n", i+1, m)
	}
	fmt.Fprintf(stdout, "SATISFIABLE (%d answer set(s))\n", len(models))
	return nil
}
