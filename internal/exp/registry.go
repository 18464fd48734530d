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

// plain adapts an experiment with no pass/fail verdict of its own.
func plain(run func(quick bool) (*Table, error)) func(Args) (*Table, int, error) {
	return func(a Args) (*Table, int, error) {
		t, err := run(a.Quick)
		return t, 0, err
	}
}

func runScaleB(a Args) (*Table, int, error) {
	o := DefaultScaleB()
	if a.Quick {
		o = QuickScaleB()
	}
	if a.Shards > 0 {
		o.Shards = []int{1, a.Shards}
	}
	t, err := ScaleB(o)
	return t, 0, err
}

// Experiments is the whole evaluation, in the order EXPERIMENTS.md
// discusses it.
var Experiments = []Experiment{
	{Name: "fig5", Desc: "E1: time for all groups to become stable vs adapters (Figure 5)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultFig5()
		if q {
			o.NodeCounts = []int{2, 10, 25}
			o.BeaconPhases = o.BeaconPhases[:2]
		}
		return Fig5(o)
	})},
	{Name: "formula1", Desc: "E2: stabilization model T = Tb+Ts+Tgsc+δ validation", Run: plain(func(q bool) (*Table, error) {
		o := DefaultFormula1()
		if q {
			o.Nodes = 15
			o.Grid = o.Grid[:3]
		}
		return Formula1(o)
	})},
	{Name: "beaconloss", Desc: "E3: adapters missing from the initial topology vs loss (p^k analysis)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultBeaconLoss()
		if q {
			o.Adapters = 20
			o.Trials = 3
		}
		return BeaconLoss(o)
	})},
	{Name: "detector", Desc: "E4: failure-detector trade-off (latency vs false reports)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultDetectors()
		if q {
			o.Adapters = 16
			o.LossRates = []float64{0, 0.10}
			o.Window = 60 * time.Second
		}
		return Detectors(o)
	})},
	{Name: "hbload", Desc: "E5: steady-state detection load vs AMG size per scheme", Run: plain(func(q bool) (*Table, error) {
		o := DefaultHBLoad()
		if q {
			o.GroupSizes = []int{4, 16, 64}
			o.Window = 30 * time.Second
		}
		return HBLoad(o)
	})},
	{Name: "failover", Desc: "E6: AMG-leader and Central failover times", Run: plain(func(q bool) (*Table, error) {
		o := DefaultFailover()
		if q {
			o.Nodes = 8
			o.Trials = 1
		}
		return Failover(o)
	})},
	{Name: "move", Desc: "E7: Central-initiated domain move (SNMP VLAN rewrite)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultMove()
		if q {
			o.Trials = 1
		}
		return Move(o)
	})},
	{Name: "merge", Desc: "E8: partition heal and AMG merge", Run: plain(func(q bool) (*Table, error) {
		o := DefaultMerge()
		if q {
			o.Sizes = [][2]int{{3, 3}, {8, 8}}
		}
		return Merge(o)
	})},
	{Name: "centralload", Desc: "E9: report-plane load at GulfStream Central", Run: plain(func(q bool) (*Table, error) {
		o := DefaultCentralLoad()
		if q {
			o.FarmSizes = []int{10, 25}
			o.Window = 30 * time.Second
		}
		return CentralLoad(o)
	})},
	{Name: "verify", Desc: "E10: discovered-vs-database verification", Run: plain(func(bool) (*Table, error) {
		return Verify(DefaultVerify())
	})},
	{Name: "tb0", Desc: "E11: beacon-phase ablation (Tb=0 vs beaconing, §2.1)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultBeaconPhase()
		if q {
			o.Adapters = 16
		}
		return BeaconPhase(o)
	})},
	{Name: "journal", Desc: "E12: Central failover recovery, state journal off vs on", Run: plain(func(q bool) (*Table, error) {
		o := DefaultJournalFailover()
		if q {
			o.AdminNodes, o.UniformNodes, o.Trials = 3, 5, 1
		}
		return JournalFailover(o)
	})},
	{Name: "phases", Desc: "E13: cold-start stabilization decomposed by protocol phase (flight recorder)", Run: plain(func(q bool) (*Table, error) {
		o := DefaultPhases()
		if q {
			o.AdminNodes, o.UniformNodes, o.Trials = 2, 4, 1
		}
		return Phases(o)
	})},
	{Name: "scale", Desc: "E14: cold-start scale sweep, 500-4000 adapters (a minute; -shards K runs scaleb at shards 1 and K)", Slow: true, Run: func(a Args) (*Table, int, error) {
		if a.Shards > 0 {
			return runScaleB(a)
		}
		o := DefaultScale()
		if a.Quick {
			o.Adapters = o.Adapters[:2]
			o.Trials = 1
		}
		t, err := Scale(o)
		return t, 0, err
	}},
	{Name: "scaleb", Desc: "E14b: zoned sharded sweep, 10k-100k adapters x 1/2/4/8 shards, replay checked (tens of minutes)", Slow: true, Run: runScaleB},
	{Name: "chaos", Desc: "E15: seed-derived fault schedules under the invariant engine (-seeds -from -rounds -partition -failover -seed-bug -no-shrink -o)", Run: func(a Args) (*Table, int, error) {
		return Chaos(a.Chaos)
	}},
	{Name: "serve", Desc: "E17: serving plane under churn, error-seconds vs notification delay", Run: func(a Args) (*Table, int, error) {
		o := DefaultServe()
		if a.Quick {
			o.FrontEnds = []int{2}
			o.Delays = []time.Duration{0, 2 * time.Second}
		}
		return Serve(o)
	}},
	{Name: "lag", Desc: "E18: the E17 cells stitched into spans, latency attributed stage by stage", Run: func(a Args) (*Table, int, error) {
		o := DefaultLag()
		if a.Quick {
			o = QuickLag()
		}
		return Lag(o)
	}},
	{Name: "ingest", Desc: "E19: one Central ingesting 8k-128k adapters' reports", Slow: true, Run: func(a Args) (*Table, int, error) {
		o := DefaultIngest()
		if a.Quick {
			o.Adapters = o.Adapters[:2]
		}
		t, _, err := Ingest(o)
		return t, 0, err
	}},
}
