// Command ilasp runs the inductive learner on built-in demonstration
// tasks, printing the hypothesis space statistics and the learned rules
// — a minimal stand-in for the ILASP system's command line.
//
// Usage:
//
//	ilasp -demo flies      # birds fly unless they are penguins
//	ilasp -demo access     # recover XACML-style policies from examples
//	ilasp -demo cav -n 40  # CAV driving-task policies from n scenarios
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"agenp/internal/apps/cav"
	"agenp/internal/asp"
	"agenp/internal/ilasp"
	"agenp/internal/obs"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ilasp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ilasp", flag.ContinueOnError)
	demo := fs.String("demo", "flies", "demo task: flies, access, or cav")
	n := fs.Int("n", 40, "number of generated examples (access/cav demos)")
	seed := fs.Uint64("seed", 20260704, "generator seed")
	noise := fs.Bool("noise", false, "noise-tolerant search")
	stats := fs.Bool("stats", false, "dump the telemetry registry to stderr on exit")
	trace := fs.String("trace", "", "write span trace as JSON lines to this file (see agenptrace)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()
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
		task *ilasp.Task
		opts ilasp.LearnOptions
	)
	switch *demo {
	case "flies":
		bg, err := asp.Parse("bird(tweety). bird(sam). penguin(sam).")
		if err != nil {
			return err
		}
		flies := func(s string) asp.Atom {
			return asp.NewAtom("flies", asp.Constant{Name: s})
		}
		task = &ilasp.Task{
			Background: bg,
			Bias: ilasp.Bias{
				Head:          []ilasp.ModeAtom{ilasp.M("flies", ilasp.Var("animal"))},
				Body:          []ilasp.ModeAtom{ilasp.M("bird", ilasp.Var("animal")), ilasp.M("penguin", ilasp.Var("animal"))},
				MaxVars:       1,
				MaxBody:       2,
				AllowNegation: true,
				RequireBody:   true,
			},
			Examples: []ilasp.Example{
				ilasp.PosExample("e1", []asp.Atom{flies("tweety")}, []asp.Atom{flies("sam")}, nil),
			},
		}
		opts = ilasp.LearnOptions{MaxRules: 1}
	case "access":
		ds := workload.GenXACML(*seed, *n)
		task = &ilasp.Task{
			Bias:     workload.AccessBias(ds.Schema, nil),
			Examples: workload.LearningExamples(ds.Examples, boolToWeight(*noise)),
		}
		opts = ilasp.LearnOptions{MaxRules: 4, Noise: *noise}
	case "cav":
		scenarios := cav.Generate(*seed, *n)
		task = &ilasp.Task{
			Background: cav.Background(),
			Bias:       cav.Bias(),
			Examples:   cav.LearningExamples(scenarios, boolToWeight(*noise)),
		}
		opts = ilasp.LearnOptions{MaxRules: 3, Noise: *noise}
	default:
		return fmt.Errorf("unknown demo %q (want flies, access, or cav)", *demo)
	}

	space, err := task.Bias.Space()
	if err == nil {
		fmt.Fprintf(stdout, "hypothesis space: %d candidate rules\n", len(space))
	}
	fmt.Fprintf(stdout, "examples: %d\n", len(task.Examples))
	start := time.Now()
	res, err := task.LearnIndependent(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "learned in %s (%d coverage checks), cost %d, covered %d/%d:\n",
		time.Since(start).Round(time.Millisecond), res.Checks, res.Cost, res.Covered, res.Total)
	for _, r := range res.Hypothesis {
		fmt.Fprintf(stdout, "  %s\n", r.String())
	}
	if *demo == "access" {
		if pol, err := xacml.PolicyFromHypothesis(res.Hypothesis, "learned"); err == nil {
			fmt.Fprintln(stdout, "as XACML-style policy:")
			fmt.Fprint(stdout, pol.Format())
		}
	}
	return nil
}

func boolToWeight(noise bool) int {
	if noise {
		return 10
	}
	return 0
}
