package exp

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment tests check the shape of scaled-down variants of every
// table; TestEvaluationGolden pins the full-size tables byte for byte.

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

// sweep runs row r over the given cells, at the given seeds if any, and
// returns its table.
func sweep[C, M any](t *testing.T, r row[C, M], cells []C, seeds ...int64) *Table {
	t.Helper()
	r.cells, r.quick = cells, 0
	if len(seeds) > 0 {
		r.seeds, r.quickSeeds = seeds, 0
	}
	tab, _, err := r.run(Args{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// trialOf runs one trial of row r and returns its measure.
func trialOf[C, M any](t *testing.T, r row[C, M], c C, seed int64) M {
	t.Helper()
	var m M
	if err := r.plan(c, seed, &m).run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFig5ShapeConstantInSize(t *testing.T) {
	tab := sweep(t, fig5, fig5Cells(2, 6, 12))
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Columns 1-3 = the Tb=5s, 10s and 20s series.
	for col := 1; col <= 3; col++ {
		var vals []float64
		for _, row := range tab.Rows {
			vals = append(vals, parseF(t, row[col]))
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		// The paper's finding: constant vs group size. Allow the skew +
		// protocol jitter, but nothing resembling growth with size.
		if hi-lo > 4.0 {
			t.Fatalf("column %d not constant: spread %.1f s (%v)", col, hi-lo, vals)
		}
	}
	// Tb=10 series must sit ~5 s above Tb=5 series.
	gap := parseF(t, tab.Rows[0][2]) - parseF(t, tab.Rows[0][1])
	if gap < 3.0 || gap > 7.5 {
		t.Fatalf("Tb gap = %.1f s, want ~5", gap)
	}
	// δ columns must be small and nonnegative-ish.
	for _, row := range tab.Rows {
		for col := 4; col <= 6; col++ {
			d := parseF(t, row[col])
			if d < -0.5 || d > 6.5 {
				t.Fatalf("δ out of range: %.1f", d)
			}
		}
	}
}

func TestFormula1Delta(t *testing.T) {
	tab := sweep(t, formula1, formula1Cells(10, formula1Grid[:3]))
	for _, row := range tab.Rows {
		delta := parseF(t, row[5])
		if delta < -0.5 || delta > 6.5 {
			t.Fatalf("δ = %.2f out of plausible range (row %v)", delta, row)
		}
		pred, meas := parseF(t, row[3]), parseF(t, row[4])
		if meas < pred-0.5 {
			t.Fatalf("measured %.1f below predicted %.1f", meas, pred)
		}
	}
}

func TestBeaconLossMatchesAnalytic(t *testing.T) {
	tab := sweep(t, beaconLoss, []float64{0, 0.5, 0.8}, beaconLoss.seeds[:3]...)
	for _, row := range tab.Rows {
		analytic, measured := parseF(t, row[1]), parseF(t, row[2])
		if analytic == 0 {
			if measured > 0.02 {
				t.Fatalf("lossless run missing adapters: %v", row)
			}
			continue
		}
		// Within a loose multiplicative band (binomial noise, few trials).
		if measured < analytic/4 || measured > analytic*4+0.02 {
			t.Fatalf("loss row %v: measured %.4f vs analytic %.4f", row, measured, analytic)
		}
	}
}

func TestDetectorTradeoffShape(t *testing.T) {
	tab := sweep(t, detectors, []detCell{{schemes[0], 0}, {schemes[0], 0.10}, {schemes[2], 0}, {schemes[2], 0.10}})
	// Layout: rows 0,1 = ring k=1 at loss 0, 10%; rows 2,3 = biring.
	get := func(r, c int) string { return tab.Rows[r][c] }
	// Everyone must detect the real failure eventually.
	for r := 0; r < 4; r++ {
		if get(r, 2) == "undetected" {
			t.Fatalf("row %d failed to detect: %v", r, tab.Rows[r])
		}
	}
	// One-strike ring at 10% loss must show false suspicions; the
	// high-sensitivity consensus scheme must show far fewer.
	ringFalse := parseF(t, get(1, 3))
	biFalse := parseF(t, get(3, 3))
	if ringFalse == 0 {
		t.Fatal("one-strike ring produced no false suspicions under loss; paper trade-off not reproduced")
	}
	if biFalse > ringFalse/2 {
		t.Fatalf("k=3+consensus did not reduce false suspicions: %v vs %v", biFalse, ringFalse)
	}
	// The leader's verification probe keeps false kills near zero even
	// for the trigger-happy detector.
	if fk := parseF(t, get(1, 4)); fk > 2 {
		t.Fatalf("verification let through %v false kills", fk)
	}
	// The one-strike detector must be faster at zero loss.
	if parseF(t, get(0, 2)) > parseF(t, get(2, 2)) {
		t.Fatal("k=1 not faster than consensus at zero loss")
	}
}

func TestHBLoadScaling(t *testing.T) {
	tab := sweep(t, hbLoad, loadCells(8, 32))
	// Columns: size, ring, biring, subgroup, randping, all-to-all.
	small, large := tab.Rows[0], tab.Rows[1]
	ringGrowth := parseF(t, large[1]) / parseF(t, small[1])
	ataGrowth := parseF(t, large[5]) / parseF(t, small[5])
	if ringGrowth > 6 {
		t.Fatalf("ring growth x%.1f for 4x size", ringGrowth)
	}
	if ataGrowth < 10 {
		t.Fatalf("all-to-all growth x%.1f for 4x size; expected ~quadratic", ataGrowth)
	}
	// At n=32 all-to-all must dominate every other scheme.
	ata := parseF(t, large[5])
	for c := 1; c <= 4; c++ {
		if parseF(t, large[c]) >= ata {
			t.Fatalf("column %d (%s) >= all-to-all at n=32", c, tab.Columns[c])
		}
	}
}

func TestFailoverTimings(t *testing.T) {
	tab := sweep(t, failover, []int{8}, failover.seeds[0])
	row := tab.Rows[0]
	if row[1] == "n/a" {
		t.Fatalf("failover row incomplete: %v", row)
	}
	recommit := parseF(t, row[1])
	if recommit <= 0 || recommit > 30 {
		t.Fatalf("recommit time %.2f s implausible", recommit)
	}
	rebuilt := parseF(t, row[3])
	if rebuilt < recommit {
		t.Fatalf("view rebuilt (%.2f) before recommit (%.2f)?", rebuilt, recommit)
	}
}

func TestMoveScenario(t *testing.T) {
	tab := sweep(t, move, move.cells, move.seeds[0])
	row := tab.Rows[0]
	if row[1] == "never" || row[2] == "never" {
		t.Fatalf("move incomplete: %v", row)
	}
	if parseF(t, row[4]) != 0 {
		t.Fatalf("unsuppressed failures during an expected move: %v", row)
	}
	if parseF(t, row[3]) == 0 {
		t.Fatalf("no suppressed failure recorded: %v", row)
	}
	if row[5] != "yes" {
		t.Fatalf("post-move verify not clean: %v", row)
	}
}

func TestMergeConvergence(t *testing.T) {
	tab := sweep(t, merge, [][2]int{{3, 3}, {6, 2}})
	for _, row := range tab.Rows {
		if row[2] != "yes" {
			t.Fatalf("merge not led by highest IP: %v", row)
		}
		if parseF(t, row[1]) > 60 {
			t.Fatalf("merge too slow: %v", row)
		}
	}
}

func TestCentralLoadSteadyStateSilent(t *testing.T) {
	tab := sweep(t, centralLoad, []int{8, 16})
	for _, row := range tab.Rows {
		if parseF(t, row[3]) != 0 {
			t.Fatalf("steady-state report traffic nonzero: %v", row)
		}
		if parseF(t, row[2]) == 0 {
			t.Fatalf("no formation reports: %v", row)
		}
		if parseF(t, row[4]) == 0 {
			t.Fatalf("churn produced no reports: %v", row)
		}
	}
	// Formation reports grow with groups, not quadratically with nodes.
	f8, f16 := parseF(t, tab.Rows[0][2]), parseF(t, tab.Rows[1][2])
	if f16 > f8*6 {
		t.Fatalf("formation reports grew too fast: %v -> %v", f8, f16)
	}
}

func TestVerifyFindings(t *testing.T) {
	tab := sweep(t, verify, verify.cells)
	if parseF(t, tab.Rows[0][2]) < 1 {
		t.Fatalf("wrong-segment not found: %v", tab.Rows[0])
	}
	if parseF(t, tab.Rows[1][2]) < 1 {
		t.Fatalf("missing-adapter not found: %v", tab.Rows[1])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.addRow("1", "2")
	tab.addRow("333", "")
	tab.note("n1")
	tab.hostNote("this host only")
	var sb strings.Builder
	tab.Fprint(&sb)
	// No line ends in a space — not the short last cell "2", not the empty
	// one — and Host lines are the caller's to print.
	want := "== X — demo ==\na    bb\n-------\n1    2\n333\nnote: n1\n\n"
	if out := sb.String(); out != want {
		t.Fatalf("rendered table:\n%q\nwant:\n%q", out, want)
	}
}
