package exp

import "time"

// Args is everything a gsbench command line can say to an experiment.
type Args struct {
	Quick bool // the scaled-down variant, seconds instead of minutes
	// Shards, when positive, makes scale and scaleb sweep the zoned farm
	// at shard counts 1 and Shards.
	Shards int
	Chaos  ChaosOptions // the sweep chaos runs
}

// Experiment is one row of the evaluation.
type Experiment struct {
	Name string
	Desc string
	// Slow rows take a minute or more at full size; TestEvaluationGolden
	// renders them at their quick size.
	Slow bool
	// Run returns the table and how many of the experiment's own
	// pass/fail properties (sanity checks, chaos seeds) failed.
	Run func(Args) (*Table, int, error)
}

// Experiments is the whole evaluation, in the order EXPERIMENTS.md
// discusses it.
var Experiments = []Experiment{
	{Name: "fig5", Desc: "E1: time for all groups to become stable vs adapters (Figure 5)", Run: fig5.run},
	{Name: "formula1", Desc: "E2: stabilization model T = Tb+Ts+Tgsc+δ validation", Run: formula1.run},
	{Name: "beaconloss", Desc: "E3: adapters missing from the initial topology vs loss (p^k analysis)", Run: beaconLoss.run},
	{Name: "detector", Desc: "E4: failure-detector trade-off (latency vs false reports)", Run: detectors.run},
	{Name: "hbload", Desc: "E5: steady-state detection load vs AMG size per scheme", Run: hbLoad.run},
	{Name: "failover", Desc: "E6: AMG-leader and Central failover times", Run: failover.run},
	{Name: "move", Desc: "E7: Central-initiated domain move (SNMP VLAN rewrite)", Run: move.run},
	{Name: "merge", Desc: "E8: partition heal and AMG merge", Run: merge.run},
	{Name: "centralload", Desc: "E9: report-plane load at GulfStream Central", Run: centralLoad.run},
	{Name: "verify", Desc: "E10: discovered-vs-database verification", Run: verify.run},
	{Name: "tb0", Desc: "E11: beacon-phase ablation (Tb=0 vs beaconing, §2.1)", Run: tb0.run},
	{Name: "journal", Desc: "E12: Central failover recovery, state journal off vs on", Run: journalFailover.run},
	{Name: "phases", Desc: "E13: cold-start stabilization decomposed by protocol phase (flight recorder)", Run: phases.run},
	{Name: "scale", Desc: "E14: cold-start scale sweep, 500-4000 adapters (a minute; -shards K runs scaleb at shards 1 and K)", Slow: true, Run: runScale},
	{Name: "scaleb", Desc: "E14b: zoned sharded sweep, 10k-100k adapters x 1/2/4/8 shards, replay checked (tens of minutes)", Slow: true, Run: runScaleB},
	{Name: "chaos", Desc: "E15: seed-derived fault schedules under the invariant engine (-seeds -from -rounds -partition -failover -seed-bug -no-shrink -o)", Run: runChaos},
	{Name: "serve", Desc: "E17: serving plane under churn, error-seconds vs notification delay", Run: serveRow.run},
	{Name: "lag", Desc: "E18: the E17 cells stitched into spans, latency attributed stage by stage", Run: lag.run},
	{Name: "ingest", Desc: "E19: one Central ingesting 8k-128k adapters' reports", Slow: true, Run: runIngest},
}

// The rows with drivers of their own.

func runScale(a Args) (*Table, int, error) {
	if a.Shards > 0 {
		return runScaleB(a)
	}
	o := DefaultScale()
	if a.Quick {
		o.Adapters = o.Adapters[:2]
		o.Trials = 1
	}
	t, err := scaleTable(o)
	return t, 0, err
}

func runScaleB(a Args) (*Table, int, error) {
	o := DefaultScaleB()
	if a.Quick { // one small point, the determinism contract still checked
		o.Adapters, o.ZoneNodes, o.Shards, o.Timeout = []int{1000}, 50, []int{1, 4}, 5*time.Minute
	}
	if a.Shards > 0 {
		o.Shards = []int{1, a.Shards}
	}
	t, err := scaleB(o)
	return t, 0, err
}

func runChaos(a Args) (*Table, int, error) { return Chaos(a.Chaos) }

func runIngest(a Args) (*Table, int, error) {
	sizes := ingestSizes
	if a.Quick {
		sizes = sizes[:2]
	}
	t, err := ingest(sizes)
	return t, 0, err
}
