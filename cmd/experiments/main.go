// Command experiments regenerates the paper's tables and figures
// (experiments E1–E13 of DESIGN.md), printing one table per experiment.
//
// Usage:
//
//	experiments                 # run everything at full scale
//	experiments -run E3,E7      # selected experiments
//	experiments -quick          # reduced dataset sizes
//	experiments -seed 42        # different generator seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"agenp/internal/experiments"
	"agenp/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runArg := fs.String("run", "", "comma-separated experiment ids (default: all)")
	quick := fs.Bool("quick", false, "reduced dataset sizes")
	seed := fs.Uint64("seed", 0, "generator seed (0 = default)")
	list := fs.Bool("list", false, "list experiments and exit")
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
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-4s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	ids := experiments.IDs()
	if *runArg != "" {
		ids = nil
		for _, id := range strings.Split(*runArg, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprint(stdout, table.String())
		fmt.Fprintf(stdout, "(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
