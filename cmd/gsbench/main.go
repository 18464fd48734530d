// Command gsbench regenerates the paper's evaluation: every table and
// figure EXPERIMENTS.md discusses, printed as aligned text tables.
//
// Usage:
//
//	gsbench [-quick] [-list] [experiment ...]
//	gsbench scale [-quick] [-shards K]
//	gsbench chaos [-seeds N] [-from N] [-rounds N] [-partition] [-failover]
//	              [-seed-bug] [-no-shrink] [-o dir]
//
// The experiments are the rows of exp.Experiments (gsbench -list names
// them); flags may come before or after the names. With no name it runs
// every row — at full size that includes scaleb's 100k-adapter sweep, tens
// of minutes, so name the rows or pass -quick (seconds for all of them).
//
// A table holds only what is the same on every host — simulated seconds,
// event and message counts, topology hashes — and the tables of the whole
// registry are committed as internal/exp/testdata/evaluation.golden, which
// `go test ./internal/exp` compares byte for byte. What is this host's
// (events/s, allocations, wall time per point) is printed after each
// table and never committed; bench/ tracks those. gsbench writes no file
// except chaos's reproduction artifacts under -o.
//
// The exit status is 1 when an experiment fails to run or fails its own
// checks: serve and lag verify the sweep's sanity properties, scaleb that
// every shard count replays the same simulation, ingest that the counts
// are the ones the corpus rules predict, and chaos counts the seeds whose
// schedule broke a protocol invariant or never reconverged (it shrinks
// each to a minimal reproduction unless -no-shrink).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	a := exp.Args{Chaos: exp.DefaultChaos()}
	fs := flag.NewFlagSet("gsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&a.Quick, "quick", false, "run scaled-down variants")
	list := fs.Bool("list", false, "list experiments and exit")
	fs.IntVar(&a.Shards, "shards", 0, "scale: run the zoned sharded sweep at shard counts 1 and this instead")
	fs.IntVar(&a.Chaos.Seeds, "seeds", a.Chaos.Seeds, "chaos: number of seeds to sweep")
	fs.Int64Var(&a.Chaos.From, "from", a.Chaos.From, "chaos: first seed")
	fs.IntVar(&a.Chaos.Rounds, "rounds", a.Chaos.Rounds, "chaos: fault injections per schedule")
	fs.BoolVar(&a.Chaos.Partition, "partition", false, "chaos: enable segment partition/drop faults")
	fs.BoolVar(&a.Chaos.Failover, "failover", false, "chaos: enable active-Central failover faults")
	fs.BoolVar(&a.Chaos.SeedBug, "seed-bug", false, "chaos: plant UnsafeSkipVerify to prove the harness catches it")
	noShrink := fs.Bool("no-shrink", false, "chaos: skip shrinking failing schedules")
	fs.StringVar(&a.Chaos.ArtifactDir, "o", "", "chaos: directory for reproduction artifacts (none when empty)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gsbench [flags] [experiment ...]\n\nexperiments:\n")
		printExperiments(stderr)
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}

	// Flags and names may interleave: `gsbench serve -quick`.
	var names []string
	for rest := args; ; rest = fs.Args()[1:] {
		if err := fs.Parse(rest); errors.Is(err, flag.ErrHelp) {
			return 0
		} else if err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		names = append(names, fs.Arg(0))
	}
	a.Chaos.Shrink = !*noShrink
	if *list {
		printExperiments(stdout)
		return 0
	}

	selected := exp.Experiments
	if len(names) > 0 {
		selected = nil
		for _, name := range names {
			i := slices.IndexFunc(exp.Experiments, func(e exp.Experiment) bool { return e.Name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "gsbench: unknown experiment %q\n", name)
				fs.Usage()
				return 2
			}
			selected = append(selected, exp.Experiments[i])
		}
	}
	code := 0
	for _, e := range selected {
		start := time.Now()
		tab, failed, err := e.Run(a)
		if err != nil {
			fmt.Fprintf(stderr, "gsbench: %s: %v\n", e.Name, err)
			code = 1
			continue
		}
		tab.Fprint(stdout)
		for _, line := range tab.Host {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stdout, "(%s wall time: %.1fs)\n\n", e.Name, time.Since(start).Seconds())
		if failed > 0 {
			code = 1
		}
	}
	return code
}

func printExperiments(w io.Writer) {
	for _, e := range exp.Experiments {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Desc)
	}
}
