// Command gsbench regenerates the paper's evaluation: every table and
// figure in EXPERIMENTS.md, printed as aligned text tables.
//
// Usage:
//
//	gsbench [-quick] [experiment ...]
//	gsbench chaos [-seeds N] [-from N] [-rounds N] [-parallel N]
//	              [-partition] [-failover] [-seed-bug] [-no-shrink] [-o dir]
//	gsbench serve [-quick] [-seed N] [-sessions R] [-parallel N] [-json path]
//	gsbench lag   [-quick] [-seed N] [-trials N] [-parallel N] [-json path]
//	gsbench scale [-quick] [-shards K] [-json path]
//	gsbench scaleb [-quick] [-json path]
//	gsbench ingest [-quick] [-seed N]
//
// With no arguments it runs everything. Experiments: fig5, formula1,
// beaconloss, detector, hbload, failover, move, merge, centralload,
// verify, tb0, journal, phases, trace, scale. -quick runs scaled-down
// variants (seconds instead of minutes).
//
// The scale subcommand runs E14; with -shards K it instead runs the zoned
// multi-shard smoke (shard counts 1 and K, cross-shard determinism
// checked). The scaleb subcommand runs the full E14b sweep: zoned farms
// at 10k/50k/100k adapters across shard counts 1/2/4/8, asserting that
// every shard count fires identical events and converges to an identical
// topology hash, and recording wall-clock speedup per shard count.
//
// The ingest subcommand runs E19: a standalone Central fed a farm-wide
// resync storm, 1 % node churn as deltas and a round of no-op fulls at
// 8k to 128k adapters. It prints the table of host-independent counts
// (which must match what the corpus rules predict, or it exits nonzero)
// and, separately, this host's wall-clock per point.
//
// The chaos subcommand sweeps seed-derived fault schedules with the
// protocol-invariant engine attached, shrinks any failing schedule to a
// minimal reproduction, and exits nonzero if any seed fails.
//
// The serve subcommand runs E17: a simulated client population served
// through a topology-driven balancer while the farm churns, sweeping
// farm size x churn schedule x notification delay and reporting
// user-visible error-seconds. It exits nonzero if any sanity property
// of the sweep fails.
//
// The lag subcommand runs E18: the E17 cells re-run with the causal
// timeline plane attached, stitching every incident into an end-to-end
// span and attributing the user-visible window stage by stage
// (fault→suspicion→verdict→2PC→report→notify→reroute→first clean
// request). It exits nonzero if any span is incomplete, any incident
// never closes, or the span arithmetic fails to reconcile with the
// serving plane's measured error-seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

type runner struct {
	name string
	desc string
	run  func(quick bool) (*exp.Table, error)
}

func runners() []runner {
	return []runner{
		{"fig5", "E1: time for all groups to become stable vs adapters (Figure 5)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultFig5()
			if q {
				o.NodeCounts = []int{2, 10, 25}
				o.BeaconPhases = o.BeaconPhases[:2]
			}
			return exp.Fig5(o)
		}},
		{"formula1", "E2: stabilization model T = Tb+Ts+Tgsc+δ validation", func(q bool) (*exp.Table, error) {
			o := exp.DefaultFormula1()
			if q {
				o.Nodes = 15
				o.Grid = o.Grid[:3]
			}
			return exp.Formula1(o)
		}},
		{"beaconloss", "E3: adapters missing from the initial topology vs loss (p^k analysis)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultBeaconLoss()
			if q {
				o.Adapters = 20
				o.Trials = 3
			}
			return exp.BeaconLoss(o)
		}},
		{"detector", "E4: failure-detector trade-off (latency vs false reports)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultDetectors()
			if q {
				o.Adapters = 16
				o.LossRates = []float64{0, 0.10}
				o.Window = 60 * time.Second
			}
			return exp.Detectors(o)
		}},
		{"hbload", "E5: steady-state detection load vs AMG size per scheme", func(q bool) (*exp.Table, error) {
			o := exp.DefaultHBLoad()
			if q {
				o.GroupSizes = []int{4, 16, 64}
				o.Window = 30 * time.Second
			}
			return exp.HBLoad(o)
		}},
		{"failover", "E6: AMG-leader and Central failover times", func(q bool) (*exp.Table, error) {
			o := exp.DefaultFailover()
			if q {
				o.Nodes = 8
				o.Trials = 1
			}
			return exp.Failover(o)
		}},
		{"move", "E7: Central-initiated domain move (SNMP VLAN rewrite)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultMove()
			if q {
				o.Trials = 1
			}
			return exp.Move(o)
		}},
		{"merge", "E8: partition heal and AMG merge", func(q bool) (*exp.Table, error) {
			o := exp.DefaultMerge()
			if q {
				o.Sizes = [][2]int{{3, 3}, {8, 8}}
			}
			return exp.Merge(o)
		}},
		{"centralload", "E9: report-plane load at GulfStream Central", func(q bool) (*exp.Table, error) {
			o := exp.DefaultCentralLoad()
			if q {
				o.FarmSizes = []int{10, 25}
				o.Window = 30 * time.Second
			}
			return exp.CentralLoad(o)
		}},
		{"verify", "E10: discovered-vs-database verification", func(q bool) (*exp.Table, error) {
			return exp.Verify(exp.DefaultVerify())
		}},
		{"tb0", "E11: beacon-phase ablation (Tb=0 vs beaconing, §2.1)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultBeaconPhase()
			if q {
				o.Adapters = 16
			}
			return exp.BeaconPhase(o)
		}},
		{"journal", "E12: Central failover recovery, state journal off vs on", func(q bool) (*exp.Table, error) {
			o := exp.DefaultJournalFailover()
			if q {
				o.AdminNodes, o.UniformNodes, o.Trials = 3, 5, 1
			}
			return exp.JournalFailover(o)
		}},
		{"phases", "E13: cold-start stabilization decomposed by protocol phase (flight recorder)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultPhases()
			if q {
				o.AdminNodes, o.UniformNodes, o.Trials = 2, 4, 1
			}
			return exp.Phases(o)
		}},
		{"trace", "E13b: flight-recorder capture overhead, recorder off vs on", func(q bool) (*exp.Table, error) {
			o := exp.DefaultTraceOverhead()
			if q {
				o.AdminNodes, o.UniformNodes = 2, 4
				o.Window, o.Trials = 15*time.Second, 1
			}
			return exp.TraceOverhead(o)
		}},
		{"scale", "E14: cold-start scale sweep, 500-4000 adapters (kernel throughput)", func(q bool) (*exp.Table, error) {
			o := exp.DefaultScale()
			o.JSONPath = "BENCH_scale.json"
			if q {
				o.Adapters = []int{100, 250}
				o.Trials = 1
			}
			return exp.Scale(o)
		}},
	}
}

// serveMain is the `gsbench serve` subcommand: the E17 serving-plane
// sweep (farm size x churn schedule x notification delay) with the
// user-visible error-seconds as the measured quantity. Exits nonzero
// when a sanity property fails (a cell did not recover, an audit found
// stale routes, or error-seconds were not monotone in delay).
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	o := exp.DefaultServe()
	quick := fs.Bool("quick", false, "run the scaled-down variant (one farm size, two delays)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "workload and farm seed")
	fs.Float64Var(&o.SessionsPerSec, "sessions", o.SessionsPerSec, "mean session arrivals/s per domain")
	fs.IntVar(&o.Parallel, "parallel", 0, "concurrent cells (0 = NumCPU)")
	fs.StringVar(&o.JSONPath, "json", "BENCH_serve.json", "raw results path (\"\" disables)")
	_ = fs.Parse(args)
	if *quick {
		o.FrontEnds = []int{2}
		o.Delays = []time.Duration{0, 2 * time.Second}
	}

	start := time.Now()
	tab, failed, err := exp.Serve(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: serve: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("(serve wall time: %.1fs)\n", time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// lagMain is the `gsbench lag` subcommand: the E18 latency-attribution
// sweep. Exits nonzero when a sanity property fails (an incomplete or
// unclosed span, non-monotone quantiles, or span arithmetic that does
// not reconcile with measured error-seconds).
func lagMain(args []string) {
	fs := flag.NewFlagSet("lag", flag.ExitOnError)
	o := exp.DefaultLag()
	quick := fs.Bool("quick", false, "run the scaled-down variant (one farm size, two trials)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "base seed (trial i runs at seed+i)")
	fs.IntVar(&o.Trials, "trials", o.Trials, "trials per cell")
	fs.IntVar(&o.Parallel, "parallel", 0, "concurrent cells (0 = NumCPU)")
	fs.StringVar(&o.JSONPath, "json", "BENCH_lag.json", "raw results path (\"\" disables)")
	_ = fs.Parse(args)
	if *quick {
		q := exp.QuickLag()
		o.FrontEnds, o.Trials = q.FrontEnds, q.Trials
	}

	start := time.Now()
	tab, failed, err := exp.Lag(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: lag: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("(lag wall time: %.1fs)\n", time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// scaleMain is the `gsbench scale` subcommand: the E14 uniform sweep, or
// — with -shards — the zoned multi-shard smoke (baseline plus the given
// shard count, determinism checked, results merged into the BENCH file).
func scaleMain(args []string) {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	quick := fs.Bool("quick", false, "run the scaled-down variant")
	shards := fs.Int("shards", 0, "run the zoned sharded smoke at this shard count (0 = legacy uniform sweep)")
	jsonPath := fs.String("json", "BENCH_scale.json", "raw results path (\"\" disables)")
	_ = fs.Parse(args)

	start := time.Now()
	var tab *exp.Table
	var err error
	if *shards > 0 {
		o := exp.QuickScaleB(*shards)
		if !*quick {
			o = exp.DefaultScaleB()
			o.Shards = []int{1, *shards}
		}
		o.JSONPath = *jsonPath
		tab, err = exp.ScaleB(o)
	} else {
		o := exp.DefaultScale()
		o.JSONPath = *jsonPath
		if *quick {
			o.Adapters = []int{100, 250}
			o.Trials = 1
		}
		tab, err = exp.Scale(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: scale: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("(scale wall time: %.1fs)\n", time.Since(start).Seconds())
}

// scalebMain is the `gsbench scaleb` subcommand: the full E14b sweep —
// 10k/50k/100k adapters across shard counts with bit-identical replay
// checked at every point.
func scalebMain(args []string) {
	fs := flag.NewFlagSet("scaleb", flag.ExitOnError)
	quick := fs.Bool("quick", false, "run the scaled-down variant (one small point)")
	jsonPath := fs.String("json", "BENCH_scale.json", "raw results path (\"\" disables)")
	_ = fs.Parse(args)
	o := exp.DefaultScaleB()
	if *quick {
		o = exp.QuickScaleB(4)
	}
	o.JSONPath = *jsonPath
	start := time.Now()
	tab, err := exp.ScaleB(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: scaleb: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("(scaleb wall time: %.1fs)\n", time.Since(start).Seconds())
}

// ingestMain is the `gsbench ingest` subcommand: the E19 Central ingest
// sweep. The table is byte-identical on every host; the timing lines
// after it are this host's.
func ingestMain(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	o := exp.DefaultIngest()
	quick := fs.Bool("quick", false, "run only the 8k and 16k adapter points")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "corpus seed (victims and arrival order; the counts do not depend on it)")
	_ = fs.Parse(args)
	if *quick {
		o.Adapters = o.Adapters[:2]
	}
	tab, results, err := exp.Ingest(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: ingest: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	base := results[0]
	for _, r := range results {
		scale := float64(r.Adapters) / float64(base.Adapters)
		fmt.Printf("%7d adapters: cold %8.1f ms  deltas %6.1f ms  no-op %6.1f ms  total %8.1f ms  (%.2fx linear from %d)\n",
			r.Adapters, ms(r.Cold), ms(r.Deltas), ms(r.Noop), ms(r.Total()),
			r.Total().Seconds()/base.Total().Seconds()/scale, base.Adapters)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chaosMain is the `gsbench chaos` subcommand: the E15 seed sweep with
// its own flag set (invoked before the experiment-runner flags parse).
func chaosMain(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	o := exp.DefaultChaos()
	fs.IntVar(&o.Seeds, "seeds", o.Seeds, "number of seeds to sweep")
	fs.Int64Var(&o.From, "from", o.From, "first seed")
	fs.IntVar(&o.Rounds, "rounds", o.Rounds, "fault injections per schedule")
	fs.IntVar(&o.Parallel, "parallel", 0, "concurrent simulations (0 = NumCPU)")
	fs.BoolVar(&o.Partition, "partition", false, "enable segment partition/drop faults")
	fs.BoolVar(&o.Failover, "failover", false, "enable active-Central failover faults")
	fs.BoolVar(&o.SeedBug, "seed-bug", false, "plant UnsafeSkipVerify to prove the harness catches it")
	settle := fs.Duration("settle", 0, "override post-fault settle window")
	noShrink := fs.Bool("no-shrink", false, "skip shrinking failing schedules")
	fs.StringVar(&o.ArtifactDir, "o", "chaos-artifacts", "directory for reproduction artifacts")
	_ = fs.Parse(args)
	o.Settle = *settle
	o.Shrink = !*noShrink

	start := time.Now()
	tab, failing, err := exp.Chaos(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbench: chaos: %v\n", err)
		os.Exit(1)
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("(chaos wall time: %.1fs)\n", time.Since(start).Seconds())
	if failing > 0 {
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		chaosMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "lag" {
		lagMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scale" {
		scaleMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scaleb" {
		scalebMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		ingestMain(os.Args[2:])
		return
	}
	quick := flag.Bool("quick", false, "run scaled-down variants")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gsbench [-quick] [-list] [experiment ...]\n\nexperiments:\n")
		for _, r := range runners() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", r.name, r.desc)
		}
	}
	flag.Parse()

	all := runners()
	if *list {
		for _, r := range all {
			fmt.Printf("%-12s %s\n", r.name, r.desc)
		}
		return
	}
	want := flag.Args()
	selected := all
	if len(want) > 0 {
		selected = nil
		for _, name := range want {
			found := false
			for _, r := range all {
				if r.name == name {
					selected = append(selected, r)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "gsbench: unknown experiment %q\n", name)
				flag.Usage()
				os.Exit(2)
			}
		}
	}
	exitCode := 0
	for _, r := range selected {
		start := time.Now()
		tab, err := r.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: %s: %v\n", r.name, err)
			exitCode = 1
			continue
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("(%s wall time: %.1fs)\n\n", r.name, time.Since(start).Seconds())
	}
	os.Exit(exitCode)
}
