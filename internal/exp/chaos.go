package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/central"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/trace"
)

// ChaosOptions parameterizes the chaos seed sweep (E15): N independent
// farms, each driven by a seed-derived fault schedule with the
// protocol-invariant engine watching every trace record.
type ChaosOptions struct {
	// From is the first seed; the sweep covers [From, From+Seeds).
	From int64
	// Seeds is how many schedules to explore.
	Seeds int
	// Rounds is the fault-injection count per schedule.
	Rounds int
	// Partition enables segment partition / drop-profile faults.
	Partition bool
	// Failover enables active-Central failover faults.
	Failover bool
	// SeedBug plants core.Config.UnsafeSkipVerify — the paper's §3
	// act-without-verification flaw — to demonstrate the harness catches
	// and shrinks a real protocol bug.
	SeedBug bool
	// Shrink ddmin-reduces each failing schedule to a minimal
	// reproduction.
	Shrink bool
	// ShrinkBudget bounds full re-simulations per shrink (24 when 0).
	ShrinkBudget int
	// ArtifactDir receives one reproduction file per failing seed
	// ("" disables).
	ArtifactDir string
}

// DefaultChaos sweeps 32 seeds with shrinking on.
func DefaultChaos() ChaosOptions {
	return ChaosOptions{From: 1000, Seeds: 32, Rounds: 25, Shrink: true}
}

// chaosTimers is the aggressive timer set of the in-tree chaos
// regression tests: failure detection takes seconds, not minutes.
func chaosTimers() (core.Config, central.Config) {
	cfg := core.DefaultConfig()
	cfg.BeaconPhase = 2 * time.Second
	cfg.BeaconInterval = 500 * time.Millisecond
	cfg.LeaderBeaconInterval = 1 * time.Second
	cfg.StableWait = 1 * time.Second
	cfg.DeferTimeout = 3 * time.Second
	cfg.DetectorParams.Interval = 500 * time.Millisecond
	cfg.OrphanTimeout = 6 * time.Second
	cfg.ConsensusWindow = 1 * time.Second
	cfg.EscalationPatience = 3 * time.Second
	cc := central.DefaultConfig()
	cc.StabilizeWait = 3 * time.Second
	return cfg, cc
}

// chaosSpec mirrors the farm shape of the in-tree chaos regression
// tests: two domains over seven-node switches, three management nodes,
// aggressive timers, flight recorder and journal on.
func chaosSpec(seed int64, seedBug bool) farm.Spec {
	cfg, cc := chaosTimers()
	cfg.UnsafeSkipVerify = seedBug
	return farm.Spec{
		Seed:       seed,
		AdminNodes: 3,
		Domains: []farm.DomainSpec{
			{Name: "acme", FrontEnds: 2, BackEnds: 3},
			{Name: "globex", FrontEnds: 2, BackEnds: 3},
		},
		NodesPerSwitch: 7,
		Core:           cfg,
		Central:        cc,
		StartSkew:      1 * time.Second,
		RecordEvents:   true,
		Trace:          true,
		Journal:        true,
	}
}

// chaosOutcome is one seed's result.
type chaosOutcome struct {
	seed       int64
	schedule   check.Schedule
	simTime    time.Duration
	violations []check.Violation
	dropped    int
	converge   []string
	err        error
	shrunk     *check.Schedule
	shrinkRuns int
	// txnContext holds txnContext's text for each violation an artifact
	// shows; nil without an artifact directory.
	txnContext []string
}

// artifactViolations is how many violations one artifact shows.
const artifactViolations = 5

func (c chaosOutcome) failed() bool {
	return c.err != nil || len(c.violations) > 0 || c.dropped > 0 || len(c.converge) > 0
}

// chaosRun executes one schedule against a fresh farm and reports what
// the invariant engine and the convergence assertions saw. When sched is
// nil the schedule is generated from the seed.
func chaosRun(o ChaosOptions, seed int64, sched *check.Schedule) chaosOutcome {
	out := chaosOutcome{seed: seed}
	f, err := farm.Build(chaosSpec(seed, o.SeedBug))
	if err != nil {
		out.err = err
		return out
	}
	engine := check.NewEngine(f)
	engine.Attach(f.Trace)
	// The span collector keeps every non-beacon record regardless of ring
	// capacity, so the timeline audit after the schedule settles sees the
	// whole run.
	coll := span.NewCollector(nil)
	coll.Attach("farm", f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		out.err = fmt.Errorf("initial stabilization failed")
		return out
	}
	// A light serving plane rides along on a direct bus tap: after the
	// schedule settles, every backend still in rotation must actually
	// serve its domain — the end-to-end check that Central's
	// notifications were sufficient to route around the whole schedule.
	plane := f.AttachServe(serve.Config{Seed: seed, SessionsPerSec: 50}, nil)
	plane.Start()
	if sched == nil {
		s := check.Generate(seed, f.CheckTopology(), check.GenOpts{
			Rounds: o.Rounds, Partition: o.Partition, Failover: o.Failover,
		})
		sched = &s
	}
	out.schedule = *sched
	before := f.Now()
	sched.Run(f)
	out.simTime = f.Now() - before
	out.violations = engine.Violations()
	out.dropped = engine.Dropped()
	if o.ArtifactDir != "" && len(out.violations) > 0 {
		recs := coll.Records()
		for _, v := range out.violations[:min(len(out.violations), artifactViolations)] {
			out.txnContext = append(out.txnContext, txnContext(recs, v))
		}
	}
	out.converge = f.ConvergenceFailures()
	plane.Stop()
	// Only audit routing when the farm itself reconverged; a farm that is
	// still broken already fails above, and auditing it would just blame
	// the balancer for Central's unfinished business.
	if c := f.ActiveCentral(); c != nil && c.Stable() && plane.Drained() {
		out.converge = append(out.converge, plane.Audit(f)...)
		// Causal-timeline audit: every incident Central opened during the
		// schedule must have closed into a complete, gap-free span.
		out.converge = append(out.converge, span.Audit(coll.Records(), f)...)
	}
	return out
}

// Chaos sweeps the seeds in parallel, shrinks every failing schedule to
// a minimal reproduction, writes artifacts, and returns the table plus
// the number of failing seeds.
func Chaos(o ChaosOptions) (*Table, int, error) {
	if o.Seeds <= 0 {
		o.Seeds = 1
	}
	if o.Rounds <= 0 {
		o.Rounds = 25
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 24
	}

	outcomes := make([]chaosOutcome, o.Seeds)
	_ = each(o.Seeds, func(i int) error { // a seed's error is a table row
		outcomes[i] = chaosRun(o, o.From+int64(i), nil)
		return nil
	})

	// Shrinking re-runs full simulations; do it sequentially so the
	// sweep's parallelism doesn't multiply.
	failing := 0
	for i := range outcomes {
		out := &outcomes[i]
		if !out.failed() {
			continue
		}
		failing++
		if o.Shrink && len(out.violations) > 0 && out.err == nil {
			// Keep ddmin on the original failure: a candidate counts only if
			// the checker that fired first in the full run fires again.
			checker := out.violations[0].Checker
			min, runs := check.Shrink(out.schedule, func(c check.Schedule) bool {
				r := chaosRun(o, out.seed, &c)
				return slices.ContainsFunc(r.violations, func(v check.Violation) bool {
					return v.Checker == checker
				})
			}, o.ShrinkBudget)
			out.shrunk = &min
			out.shrinkRuns = runs
		}
		if o.ArtifactDir != "" {
			if err := writeChaosArtifact(o.ArtifactDir, *out); err != nil {
				return nil, failing, err
			}
		}
	}

	t := &Table{
		ID: "E15/chaos",
		Title: fmt.Sprintf("chaos seed sweep: %d seeds from %d, %d faults each",
			o.Seeds, o.From, o.Rounds),
		Columns: []string{"seed", "faults", "sim time(s)", "violations", "converged", "shrunk to"},
	}
	for _, out := range outcomes {
		verdict, shrunk := "yes", ""
		switch {
		case out.err != nil:
			verdict = "ERROR: " + out.err.Error()
		case len(out.converge) > 0:
			verdict = fmt.Sprintf("NO (%d findings)", len(out.converge))
		}
		vio := fmt.Sprintf("%d", len(out.violations))
		if out.dropped > 0 {
			vio += fmt.Sprintf("(+%d dropped)", out.dropped)
		}
		if out.shrunk != nil {
			shrunk = fmt.Sprintf("%d ops in %d runs", len(out.shrunk.Ops), out.shrinkRuns)
		}
		t.AddRow(fmt.Sprintf("%d", out.seed), fmt.Sprintf("%d", len(out.schedule.Ops)),
			secs(out.simTime), vio, verdict, shrunk)
	}
	switch {
	case failing == 0:
		t.Note("all %d seeds: protocol invariants held continuously and every farm reconverged", o.Seeds)
	case o.ArtifactDir == "":
		t.Note("%d/%d seeds FAILED", failing, o.Seeds)
	default:
		t.Note("%d/%d seeds FAILED; reproduction artifacts in %s", failing, o.Seeds, o.ArtifactDir)
	}
	if o.SeedBug {
		t.Note("UnsafeSkipVerify planted: failures above demonstrate the harness catching the §3 flaw")
	}
	return t, failing, nil
}

// txnContext renders, from a run's records up to a violation's trigger,
// what explains a violation that carries a 2PC transaction: the victim's
// own records for that leader#token, the victim's last started or
// orphaned record (the last end of its lineage), and the leader's records
// for the round (prepares, acks, commit). Empty when there is no txn.
func txnContext(recs []trace.Record, v check.Violation) string {
	if v.Txn == "" {
		return ""
	}
	victim, leader := v.Rec.Self, v.Rec.Group
	var lastEnd *trace.Record
	n := len(recs)
	for i, r := range recs {
		if r.Seq > v.Rec.Seq {
			n = i
			break
		}
		if r.Self == victim && (r.Kind == trace.KStarted || r.Kind == trace.KOrphaned) {
			lastEnd = &recs[i]
		}
	}
	var own, led []trace.Record
	for _, t := range trace.Txns(recs[:n]) {
		if t.Leader != leader || t.Token != v.Rec.Token {
			continue
		}
		for _, r := range t.Records {
			if r.Self == victim {
				own = append(own, r)
			} else if r.Self == leader {
				led = append(led, r)
			}
		}
	}
	var b strings.Builder
	section := func(title string, rs ...trace.Record) {
		fmt.Fprintf(&b, "\n  %s:", title)
		for _, r := range rs {
			b.WriteString("\n    ")
			b.WriteString(r.String())
		}
	}
	section(fmt.Sprintf("%v's records for txn %s", victim, v.Txn), own...)
	if lastEnd != nil {
		section(fmt.Sprintf("%v's last lineage end", victim), *lastEnd)
	}
	if leader != victim {
		section(fmt.Sprintf("leader %v's records for the round", leader), led...)
	}
	return b.String()
}

// writeChaosArtifact records everything needed to replay one failing
// seed: the schedule DSL, the first violations with their trace windows,
// the convergence findings, and (when shrunk) the minimal reproduction
// as DSL text.
func writeChaosArtifact(dir string, out chaosOutcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# chaos reproduction, seed %d\n", out.seed)
	if out.err != nil {
		fmt.Fprintf(&b, "# run error: %v\n", out.err)
	}
	fmt.Fprintf(&b, "\n## schedule\n\n%s\n", out.schedule)
	if len(out.converge) > 0 {
		b.WriteString("## convergence failures\n\n")
		for _, m := range out.converge {
			fmt.Fprintf(&b, "  %s\n", m)
		}
		b.WriteString("\n")
	}
	if len(out.violations) > 0 {
		fmt.Fprintf(&b, "## invariant violations (%d", len(out.violations))
		if out.dropped > 0 {
			fmt.Fprintf(&b, ", +%d dropped", out.dropped)
		}
		b.WriteString(")\n\n")
		for i, v := range out.violations[:min(len(out.violations), artifactViolations)] {
			b.WriteString(v.Format())
			b.WriteString(out.txnContext[i])
			b.WriteString("\n\n")
		}
	}
	if out.shrunk != nil {
		fmt.Fprintf(&b, "## minimal reproduction (%d runs)\n\n%s\n",
			out.shrinkRuns, out.shrunk)
	}
	name := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.txt", out.seed))
	return os.WriteFile(name, []byte(b.String()), 0o644)
}
