package exp

import (
	"fmt"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/trace"
)

// PhasesOptions parameterizes the stabilization-phase decomposition.
type PhasesOptions struct {
	Seed         int64
	AdminNodes   int
	UniformNodes int
	Trials       int
}

// DefaultPhases uses the paper prototype's 20-node farm.
func DefaultPhases() PhasesOptions {
	return PhasesOptions{Seed: 131, AdminNodes: 4, UniformNodes: 16, Trials: 3}
}

// PhasesResult decomposes one cold start into the protocol's phases, all
// measured from farm start on the simulated clock.
type PhasesResult struct {
	// Discovery ends when the last adapter leaves its beacon phase with
	// an initial member set (last discovery-formed record).
	Discovery time.Duration
	// Formation ends when the last AMG view of the cold start commits
	// (last view-commit record before stabilization).
	Formation time.Duration
	// Reporting ends when Central applies the last leader report.
	Reporting time.Duration
	// Stable is when Central declares the farm view stable (Figure 5).
	Stable time.Duration
	// Txns counts correlated 2PC membership transactions.
	Txns int
	// Records is the number of flight-recorder records captured.
	Records uint64
}

// PhasesTrial cold-starts a traced farm, waits for stabilization, and
// reads the phase boundaries out of the flight recorder.
func PhasesTrial(o PhasesOptions, seed int64) (PhasesResult, error) {
	var res PhasesResult
	cfg := core.DefaultConfig()
	cc := central.DefaultConfig()
	f, err := farm.Build(farm.Spec{
		Seed:         seed,
		AdminNodes:   o.AdminNodes,
		UniformNodes: o.UniformNodes, UniformAdapters: 2,
		StartSkew: 2 * time.Second,
		Core:      cfg, Central: cc,
		Trace: true,
	})
	if err != nil {
		return res, err
	}
	f.Start()
	stable, ok := f.RunUntilStable(5 * time.Minute)
	if !ok {
		return res, fmt.Errorf("exp: phases: farm never stabilized")
	}
	res.Stable = stable
	records := f.Trace.Snapshot()
	for _, rec := range records {
		switch rec.Kind {
		case trace.KFormed:
			if rec.T > res.Discovery {
				res.Discovery = rec.T
			}
		case trace.KViewCommit:
			if rec.T > res.Formation {
				res.Formation = rec.T
			}
		case trace.KReportApplied:
			if rec.T > res.Reporting {
				res.Reporting = rec.T
			}
		}
	}
	res.Txns = len(trace.Txns(records))
	res.Records = f.Trace.Total()
	return res, nil
}

// Phases decomposes Figure 5's stabilization time into its protocol
// phases — beacon discovery, AMG 2PC formation, leader reporting, and
// Central's quiet wait — using the flight recorder's timeline.
func Phases(o PhasesOptions) (*Table, error) {
	t := &Table{
		ID: "E13/phases",
		Title: fmt.Sprintf("cold-start stabilization by protocol phase (%d nodes, flight-recorder spans)",
			o.AdminNodes+o.UniformNodes),
		Columns: []string{"trial", "discovery(s)", "formation(s)", "reporting(s)", "stable(s)", "2pc txns", "records"},
	}
	for trial := 0; trial < o.Trials; trial++ {
		r, err := PhasesTrial(o, o.Seed+int64(trial)*13)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", trial+1), secs(r.Discovery), secs(r.Formation),
			secs(r.Reporting), secs(r.Stable), fmt.Sprintf("%d", r.Txns),
			fmt.Sprintf("%d", r.Records))
	}
	t.Note("discovery = last adapter ends its beacon phase; formation = last AMG view commit;")
	t.Note("reporting = Central applies the last leader report; stable = Formula (1)'s endpoint.")
	t.Note("the stable-reporting gap is Central's Tgsc quiet wait, as the model predicts")
	return t, nil
}
