package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// selfcheckRuns is the size of each of the self-check's two sets.
const selfcheckRuns = 5

// childRun makes one untraced run in a process of its own, as the driver
// does: peak RSS is a per-process high-water mark, so runs that shared a
// process would report each other's memory. It returns the result line
// and the full record the run wrote to outDir.
func childRun(workload string, seed int64, seconds float64) (result, *record, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, nil, fmt.Errorf("run failed: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, nil, fmt.Errorf("run incorrect: %d of %d ops failed", res.Failed, res.Attempted)
	}
	data, err := os.ReadFile(filepath.Join(outDir, workload+".json"))
	if err != nil {
		return res, nil, err
	}
	rec := new(record)
	if err := json.Unmarshal(data, rec); err != nil {
		return res, nil, fmt.Errorf("record: %w", err)
	}
	return res, rec, nil
}

// runSelfcheck runs every workload in two interleaved sets (A B A B …)
// of untraced runs at one seed. It compares the sets' medians on every
// end-to-end metric against the metric's same-seed bound, and requires
// the host-independent outcomes to be bit-identical over all the runs.
// Interleaving puts a noisy spell on the host into both sets instead of
// into one. It returns the exit code.
func runSelfcheck(seed int64, seconds float64) int {
	fmt.Printf("selfcheck: %d workloads, 2 sets × %d runs, box %.0f s, seed %d\n", len(workloads), selfcheckRuns, seconds, seed)
	h := hostFingerprint()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, rev %s\n", h.CPUModel, h.NProc, h.GoMaxProcs, h.GoVersion, h.GitRev)
	fmt.Printf("%-16s %-18s %18s %18s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "bound", "verdict")
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		var first *record
		for i := 0; i < 2*selfcheckRuns; i++ {
			res, rec, err := childRun(w.name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck: %s: %v\n", w.name, err)
				return 1
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
			if first == nil {
				first = rec
			}
			for _, d := range append(diffExact(first.Exact, rec.Exact), diffExact(first.Pins, rec.Pins)...) {
				fmt.Printf("%-16s run %d differs from run 0 on an exact outcome: %s  BREACH\n", w.name, i, d)
				breaches++
			}
		}
		for _, d := range endToEnd {
			a, b := summarize(sets[0][d.Name]), summarize(sets[1][d.Name])
			diff := relDiff(a.Median, b.Median)
			verdict := "ok"
			// Either set may be the worse one: identical code, so the
			// difference is noise in whichever direction it falls.
			if diff > d.Repeat || -diff > d.Repeat {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-18s %18.6g %18.6g %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.name, d.Name, a.Median, b.Median, 100*diff, 100*a.spread(), 100*d.Repeat, verdict)
		}
		for _, name := range sortedKeys(first.Exact) {
			v := strconv.FormatFloat(first.Exact[name], 'g', -1, 64)
			fmt.Printf("%-16s %-18s %18s %18s %9s %9s %7s  %s\n", w.name, name, v, v, "0", "0", "exact", "ok")
		}
	}
	if breaches > 0 {
		fmt.Printf("selfcheck: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("selfcheck: two sets of runs of the same code agree within every bound, and every exact outcome is bit-identical over all runs")
	return 0
}
