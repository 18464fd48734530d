package exp

import (
	"fmt"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/trace"
)

// The stabilization rows: Figure 5 (E1), Formula (1) (E2), and the same
// cold start cut into its protocol phases by the flight recorder (E13).

// formula is one cold start of a uniform farm with three adapters per
// node: T = Tb + Ts + Tgsc is the stabilization time Formula (1)
// predicts, and seed is added to the row's seed.
type formula struct {
	nodes        int
	tb, ts, tgsc time.Duration
	seed         int64
}

func (c formula) predicted() time.Duration { return c.tb + c.ts + c.tgsc }

// fig5Tbs are Figure 5's beacon phases, in seconds.
var fig5Tbs = []time.Duration{5, 10, 20}

// fig5Cells is the Figure 5 grid: every farm size at every Tb, with the
// paper's Ts = 5 s and Tgsc = 15 s; a size's seed offset is its node
// count.
func fig5Cells(nodes ...int) []formula {
	var out []formula
	for _, n := range nodes {
		for _, tb := range fig5Tbs {
			out = append(out, formula{n, tb * time.Second, 5 * time.Second, 15 * time.Second, int64(n)})
		}
	}
	return out
}

// formula1Grid is the Formula (1) parameter grid, (Tb, Ts, Tgsc) in
// seconds.
var formula1Grid = [][3]time.Duration{{5, 5, 15}, {10, 5, 15}, {20, 5, 15}, {5, 10, 15}, {5, 5, 30}, {10, 10, 30}}

// formula1Cells is the grid on nodes nodes; point i's seed offset is i.
func formula1Cells(nodes int, grid [][3]time.Duration) []formula {
	out := make([]formula, len(grid))
	for i, p := range grid {
		out[i] = formula{nodes, p[0] * time.Second, p[1] * time.Second, p[2] * time.Second, int64(i)}
	}
	return out
}

// stablePlan cold-starts the cell's farm, staggered over 2 s of boots,
// and measures the instant Central declares its view stable.
func stablePlan(c formula, seed int64, m *time.Duration) plan {
	cfg := core.DefaultConfig()
	cfg.BeaconPhase = c.tb
	cfg.StableWait = c.ts
	cc := central.DefaultConfig()
	cc.StabilizeWait = c.tgsc
	return plan{
		spec: farm.Spec{Seed: seed + c.seed, UniformNodes: c.nodes, UniformAdapters: 3,
			StartSkew: 2 * time.Second, Core: cfg, Central: cc},
		stages: []stage{{stable: 10 * time.Minute}},
		end:    func(t *trial) error { *m = t.ActiveCentral().StableAt(); return nil },
	}
}

// fig5 reproduces Figure 5: time for all groups to become stable vs.
// number of adapters, one series per Tb. The paper's finding — constant
// in group size, equal to Tb+Ts+Tgsc plus a small δ — should hold.
var fig5 = row[formula, time.Duration]{
	cells: fig5Cells(2, 5, 10, 20, 30, 40, 55),
	quick: 2 * len(fig5Tbs),
	seeds: []int64{1},
	plan:  stablePlan,
	table: func(cells []formula, ms [][]time.Duration) (*Table, int) {
		t := &Table{ID: "E1/fig5", Title: "time for all groups to become stable (s) vs number of adapters",
			Columns: []string{"adapters"}}
		for _, col := range []string{"Tb=%ds", "δ(Tb=%ds)"} {
			for _, tb := range fig5Tbs {
				t.Columns = append(t.Columns, fmt.Sprintf(col, tb))
			}
		}
		tbs := len(fig5Tbs)
		var maxDelta time.Duration
		for i := 0; i < len(cells); i += tbs {
			row := []string{fmt.Sprint(3 * cells[i].nodes)}
			var deltas []string
			for j, c := range cells[i : i+tbs] {
				got := ms[i+j][0]
				maxDelta = max(maxDelta, got-c.predicted())
				row = append(row, secs(got))
				deltas = append(deltas, secs(got-c.predicted()))
			}
			t.addRow(append(row, deltas...)...)
		}
		t.note("predicted T = Tb + Ts + Tgsc with Ts=%v, Tgsc=%v (paper formula 1)", cells[0].ts, cells[0].tgsc)
		t.note("paper: constant vs adapters, δ between 5 and 6 s (Java threads + start stagger); here δ <= %s s from StartSkew=2s + protocol costs", secs(maxDelta))
		return t, 0
	},
}

// formula1 validates T = Tb + Ts + Tgsc + δ across a parameter grid on
// the 55-node testbed shape.
var formula1 = row[formula, time.Duration]{
	cells: formula1Cells(55, formula1Grid),
	quick: 3,
	seeds: []int64{7},
	plan:  stablePlan,
	table: func(cells []formula, ms [][]time.Duration) (*Table, int) {
		t := &Table{
			ID:      "E2/formula1",
			Title:   fmt.Sprintf("stabilization model vs measurement (%d nodes x 3 adapters)", cells[0].nodes),
			Columns: []string{"Tb(s)", "Ts(s)", "Tgsc(s)", "predicted(s)", "measured(s)", "δ(s)"},
		}
		for i, c := range cells {
			got := ms[i][0]
			t.addRow(secs(c.tb), secs(c.ts), secs(c.tgsc), secs(c.predicted()), secs(got), secs(got-c.predicted()))
		}
		t.note("paper §4.1: measured δ between 5 and 6 s on the 55-node Java prototype")
		return t, 0
	},
}

// phaseTimes decomposes one cold start into the protocol's phases, all
// from farm start on the simulated clock.
type phaseTimes struct {
	// discovery ends with the last formed record (an adapter leaving its
	// beacon phase with an initial member set), formation with the last
	// view commit, reporting with Central applying the last leader report;
	// stable is when Central declares the farm view stable (Figure 5).
	discovery, formation, reporting, stable time.Duration
	txns                                    int    // correlated 2PC membership transactions
	records                                 uint64 // flight-recorder records captured
}

// phases decomposes Figure 5's stabilization time into its protocol
// phases — beacon discovery, AMG 2PC formation, leader reporting, and
// Central's quiet wait — on the paper prototype's 20-node farm, reading
// the flight recorder's timeline.
var phases = row[[2]int, phaseTimes]{
	cells:      [][2]int{{4, 16}},
	seeds:      []int64{131, 144, 157},
	quickSeeds: 1,
	plan: func(c [2]int, seed int64, m *phaseTimes) plan {
		return plan{
			spec: farm.Spec{Seed: seed, AdminNodes: c[0], UniformNodes: c[1], UniformAdapters: 2,
				StartSkew: 2 * time.Second, Core: core.DefaultConfig(), Central: central.DefaultConfig(), Trace: true},
			stages: []stage{{stable: 5 * time.Minute}},
			end: func(t *trial) error {
				recs := t.Trace.Snapshot()
				last := map[trace.Kind]time.Duration{}
				for _, r := range recs {
					last[r.Kind] = r.T
				}
				*m = phaseTimes{last[trace.KFormed], last[trace.KViewCommit], last[trace.KReportApplied],
					t.ActiveCentral().StableAt(), len(trace.Txns(recs)), t.Trace.Total()}
				return nil
			},
		}
	},
	table: func(cells [][2]int, ms [][]phaseTimes) (*Table, int) {
		t := &Table{
			ID:      "E13/phases",
			Title:   fmt.Sprintf("cold-start stabilization by protocol phase (%d nodes, flight-recorder spans)", cells[0][0]+cells[0][1]),
			Columns: []string{"trial", "discovery(s)", "formation(s)", "reporting(s)", "stable(s)", "2pc txns", "records"},
		}
		for i, r := range ms[0] {
			t.addRow(fmt.Sprint(i+1), secs(r.discovery), secs(r.formation), secs(r.reporting), secs(r.stable),
				fmt.Sprint(r.txns), fmt.Sprint(r.records))
		}
		t.note("discovery = last adapter ends its beacon phase; formation = last AMG view commit;")
		t.note("reporting = Central applies the last leader report; stable = Formula (1)'s endpoint.")
		t.note("the stable-reporting gap is Central's Tgsc quiet wait, as the model predicts")
		return t, 0
	},
}
