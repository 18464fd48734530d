// Command gsperf is the repository's benchmark: it runs one workload in
// one process, verifies the workload's outputs, and prints every metric
// by name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir receives the run records and trace files: bench/out/, next to
// the bin/ directory the launcher builds into.
var outDir = "bench/out"

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 99, "workload seed: farm seed, fault script, corpus order")
		seconds   = flag.Float64("seconds", runSeconds, "time box for the timed reps")
		traced    = flag.Int("trace", 0, "1 = the traced run that yields the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two interleaved sets and compare them against the bounds")
		doCal     = flag.Bool("calibrate", false, "run the host calibration probes and print them (used internally)")
		doMan     = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()

	// min(nproc, 4): the kernel's parallel windows and the pump's two
	// event loops get real cores where there are any, and the figure is
	// recorded in every result.
	if n := runtime.NumCPU(); n > 4 {
		runtime.GOMAXPROCS(4)
	}
	if exe, err := os.Executable(); err == nil && filepath.Base(filepath.Dir(exe)) == "bin" {
		outDir = filepath.Join(filepath.Dir(filepath.Dir(exe)), "out")
	}

	switch {
	case *doCal:
		_ = json.NewEncoder(os.Stdout).Encode(calibrate())
		return
	case *doMan:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildManifest())
		return
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds))
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "gsperf: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	rec, err := runOne(w, *seed, *seconds, *traced != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsperf:", err)
		os.Exit(1)
	}
	report(rec)
	res := result{
		Correct:   len(rec.Problems) == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   rec.Metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runOne(w *workload, seed int64, seconds float64, traced bool) (*record, error) {
	var rec *record
	var err error
	if traced {
		rec, err = runTraced(w, seed, seconds, filepath.Join(outDir, w.name+".trace.json"))
	} else {
		rec, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	suffix := ".json"
	if traced {
		suffix = ".traced.json"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(outDir, w.name+suffix), data, 0o644)
}

// report prints the human-readable record ahead of the result line.
func report(rec *record) {
	h := rec.Host
	fmt.Printf("workload %s seed %d traced=%v reps=%d box=%.0fs\n", rec.Workload, rec.Seed, rec.Traced, rec.Reps, rec.BoxSeconds)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, rev %s, link %s\n",
		h.CPUModel, h.NProc, h.GoMaxProcs, h.GoVersion, h.GitRev, h.Link)
	fmt.Printf("calibration before/after: cpu %.3f/%.3f s, mem %.3f/%.3f s\n",
		rec.CalBefore.CPUSeconds, rec.CalAfter.CPUSeconds, rec.CalBefore.MemSeconds, rec.CalAfter.MemSeconds)
	for _, name := range sortedKeys(rec.Timings) {
		s := rec.Timings[name]
		fmt.Printf("  %-14s median %.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g  (n=%d)\n",
			name, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, name := range sortedKeys(rec.Exact) {
		fmt.Printf("  %-22s %v (exact)\n", name, rec.Exact[name])
	}
	for _, name := range sortedKeys(rec.Derived) {
		fmt.Printf("  %-22s %.6g (derived, not gated)\n", name, rec.Derived[name])
	}
	for _, n := range rec.Notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  determinism_ok %v, ops_attempted %d, ops_failed %d\n", rec.Determinism, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	for _, name := range sortedKeys(rec.Metrics) {
		fmt.Printf("  %-34s %.6g %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
