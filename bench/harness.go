package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// instance is one fresh copy of a workload's system under test, built by
// the workload's setup (timed as setup_s).
type instance interface {
	// run executes the cell — the fixed work whose wall time is rep_s.
	// sl is nil in untraced reps.
	run(sl *spanLog) error
	// check verifies the cell's outputs and reads counters. Untimed.
	check() outcome
	close()
}

// outcome is what one rep produced besides its timings.
type outcome struct {
	// ops is the cell's operation count, the divisor of allocs_per_op:
	// events fired, reports handled or round trips completed.
	ops float64
	// attempted/failed count the workload's checked operations.
	attempted, failed int
	// exact are host-independent outcomes (simulated times, counts); the
	// harness requires them bit-identical across all reps of a run.
	exact map[string]float64
	// pins are further values that must repeat exactly (events fired,
	// topology hash) but are not reported metrics.
	pins map[string]float64
	// counts are per-layer counters read from exported accessors.
	counts map[string]float64
	// notes are human-readable lines for the record (hashes, link type).
	notes []string
	// problems are failed output checks; any makes the run incorrect.
	problems []string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds a fresh instance from the seed: everything the cell
	// needs before it can start. A non-nil capture asks for a traced
	// instance, whose taps and sinks record the cell's inputs.
	setup func(seed int64, cap *capture) (instance, error)
	// probes drives each layer the workload runs standalone, with the
	// inputs a traced rep captured, and returns per-layer nanoseconds
	// (count × unit cost) for the share arithmetic.
	probes func(p *probeRun)
}

// repResult is one timed rep.
type repResult struct {
	setups                  []float64 // seconds, every set-up this rep made
	repS, cpuS, allocsPerOp float64
	out                     outcome
}

// setupsPerRep is how many times a rep sets the workload up. Set-up
// takes milliseconds, so one sample per rep leaves setup_s the noisiest
// metric of a run; the extra instances are closed unused and collected
// before the one the cell runs on is built.
const setupsPerRep = 5

// timedSetup builds one instance and records how long that took.
func timedSetup(w *workload, seed int64, cap *capture, r *repResult) (instance, error) {
	t0 := time.Now()
	inst, err := w.setup(seed, cap)
	r.setups = append(r.setups, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return inst, nil
}

// oneRep builds a fresh instance and runs its cell once. GC and memory
// statistics are taken outside both timers.
func oneRep(w *workload, seed int64, cap *capture, sl *spanLog) (repResult, error) {
	var r repResult
	id := sl.begin("rep")
	defer func() { sl.end(id, 1) }()

	runtime.GC()
	sid := sl.begin("setup")
	for i := 1; i < setupsPerRep; i++ {
		spare, err := timedSetup(w, seed, nil, &r)
		if err != nil {
			sl.end(sid, i)
			return r, err
		}
		spare.close()
		runtime.GC() // keep the spares out of the cell's heap and of peak RSS
	}
	inst, err := timedSetup(w, seed, cap, &r)
	sl.end(sid, setupsPerRep)
	if err != nil {
		return r, err
	}
	defer inst.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cid := sl.begin("cell")
	c0 := cpuSeconds()
	t0 := time.Now()
	err = inst.run(sl)
	r.repS = time.Since(t0).Seconds()
	r.cpuS = cpuSeconds() - c0
	sl.end(cid, 1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("%s: cell: %w", w.name, err)
	}

	kid := sl.begin("check")
	r.out = inst.check()
	sl.end(kid, 1)
	if r.out.ops > 0 {
		r.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / r.out.ops
	}
	return r, nil
}

// series runs reps inside a time box and returns them.
func series(w *workload, seed int64, box timeBox, cap func() *capture, sl *spanLog) ([]repResult, error) {
	var reps []repResult
	start := time.Now()
	for box.more(len(reps), time.Since(start)) {
		var c *capture
		if cap != nil {
			c = cap()
		}
		r, err := oneRep(w, seed, c, sl)
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// record is everything one run measured; it is written to
// bench/out/<workload>.json and summarised on stdout.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Host        fingerprint        `json:"host"`
	Reps        int                `json:"reps"`
	BoxSeconds  float64            `json:"box_seconds"`
	Timings     map[string]summary `json:"timings"`
	Exact       map[string]float64 `json:"exact"`
	Pins        map[string]float64 `json:"pins"`
	Notes       []string           `json:"notes,omitempty"`
	Counts      map[string]float64 `json:"counts"`
	Derived     map[string]float64 `json:"derived"`
	Determinism bool               `json:"determinism_ok"`
	Attempted   int                `json:"ops_attempted"`
	Failed      int                `json:"ops_failed"`
	Problems    []string           `json:"problems,omitempty"`
	CalBefore   calibration        `json:"calibration_before"`
	CalAfter    calibration        `json:"calibration_after"`
	Metrics     map[string]value   `json:"metrics"`
}

// fold reduces a run's reps into the record: the order statistics of the
// timings, the exact metrics (checked for equality across reps), and the
// worst rep's failure accounting.
func (rec *record) fold(reps []repResult) {
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.setups...)
	}
	rec.Reps = len(reps)
	rec.Timings = map[string]summary{
		"setup_s":       summarize(setups),
		"rep_s":         summarize(column(reps, func(r repResult) float64 { return r.repS })),
		"cpu_s":         summarize(column(reps, func(r repResult) float64 { return r.cpuS })),
		"allocs_per_op": summarize(column(reps, func(r repResult) float64 { return r.allocsPerOp })),
	}
	first := reps[0].out
	// Counts come from the last rep: it is the one whose capture the
	// probes are given, and they may add to the same map.
	rec.Exact, rec.Pins, rec.Notes = first.exact, first.pins, first.notes
	rec.Counts = reps[len(reps)-1].out.counts
	rec.Determinism = true
	for i, r := range reps {
		diffs := append(diffExact(first.exact, r.out.exact), diffExact(first.pins, r.out.pins)...)
		for _, d := range diffs {
			rec.Determinism = false
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d not deterministic: %s", i, d))
		}
		if r.out.failed > rec.Failed || i == 0 {
			rec.Attempted, rec.Failed = r.out.attempted, r.out.failed
		}
		for _, p := range r.out.problems {
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
	}
	rep := rec.Timings["rep_s"].Min
	rec.Derived = map[string]float64{"ops": first.ops}
	if rep > 0 {
		rec.Derived["ops_per_s"] = first.ops / rep
	}
}

// diffExact lists the keys on which two exact-metric sets disagree.
// Values are compared bit for bit.
func diffExact(a, b map[string]float64) []string {
	var out []string
	for k, av := range a {
		bv, ok := b[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, av, bv))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing vs %v", k, b[k]))
		}
	}
	sort.Strings(out)
	return out
}

const (
	repFloor = 5
	repCap   = 200
)

// startRecord opens a run's record with the host fingerprint and the
// calibration taken before any rep.
func startRecord(w *workload, seed int64, seconds float64, traced bool) (*record, error) {
	cal, err := runCalibration()
	if err != nil {
		return nil, err
	}
	return &record{Workload: w.name, Seed: seed, Traced: traced, Host: hostFingerprint(),
		BoxSeconds: seconds, CalBefore: cal}, nil
}

// runUntraced is the end-to-end measurement: warm-up, then the cell
// repeated with a fresh instance for the time box.
func runUntraced(w *workload, seed int64, seconds float64) (*record, error) {
	rec, err := startRecord(w, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	if _, err := oneRep(w, seed, nil, nil); err != nil { // warm-up, untimed
		return nil, err
	}
	box := timeBox{box: time.Duration(seconds * float64(time.Second)), floor: repFloor, cap: repCap}
	reps, err := series(w, seed, box, nil, nil)
	if err != nil {
		return nil, err
	}
	rec.fold(reps)
	if rec.CalAfter, err = runCalibration(); err != nil {
		return nil, err
	}
	// Host time is reported as the fastest sample: the cell is the same
	// work every rep and a shared host only ever adds to it (README.md,
	// "Noise"). Allocations per op have no such bias.
	got := map[string]float64{
		"setup_s":       rec.Timings["setup_s"].Min,
		"rep_s":         rec.Timings["rep_s"].Min,
		"cpu_s":         rec.Timings["cpu_s"].Min,
		"peak_rss_mb":   peakRSSMB(),
		"allocs_per_op": rec.Timings["allocs_per_op"].Median,
	}
	rec.Metrics = render(endToEnd, got)
	return rec, nil
}

// runTraced is the per-layer measurement: a short untraced series for the
// baseline rep time, a traced series whose taps capture the cell's
// inputs, then the layer probes driven with those inputs.
func runTraced(w *workload, seed int64, seconds float64, tracePath string) (*record, error) {
	rec, err := startRecord(w, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	sl := newSpanLog(w.name)
	root := sl.begin("run")

	wid := sl.begin("warmup")
	_, err = oneRep(w, seed, nil, nil)
	sl.end(wid, 1)
	if err != nil {
		return nil, err
	}
	quarter := timeBox{box: time.Duration(seconds / 4 * float64(time.Second)), floor: 2, cap: repCap}

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	uid := sl.begin("untraced")
	plain, err := series(w, seed, quarter, nil, nil)
	sl.end(uid, len(plain))
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&gc1)

	var last *capture
	tid := sl.begin("traced")
	traced, err := series(w, seed, quarter, func() *capture { last = newCapture(); return last }, sl)
	sl.end(tid, len(traced))
	if err != nil {
		return nil, err
	}
	rec.fold(traced)
	for _, d := range diffExact(plain[0].out.pins, traced[0].out.pins) {
		rec.Problems = append(rec.Problems, "tracing perturbed the cell: "+d)
	}

	baseRep := slices.Min(column(plain, func(r repResult) float64 { return r.repS }))
	tracedRep := rec.Timings["rep_s"].Min
	p := &probeRun{
		seed: seed, cap: last, out: traced[len(traced)-1].out, sl: sl,
		repNs:   baseRep * 1e9,
		unit:    map[string]float64{},
		layerNs: map[string]float64{},
	}
	pid := sl.begin("probes")
	w.probes(p)
	sl.end(pid, 1)
	sl.end(root, 1)
	rec.Problems = append(rec.Problems, p.problems...)

	if rec.CalAfter, err = runCalibration(); err != nil {
		return nil, err
	}

	got := map[string]float64{}
	for k, v := range rec.Exact {
		got[k] = v
	}
	for k, v := range rec.Counts {
		got[k] = v
	}
	for k, v := range p.unit {
		got[k] = v
	}
	if rec.Attempted > 0 {
		got["fail_share"] = float64(rec.Failed) / float64(rec.Attempted)
	}
	sh, rest := shares(p.layerNs, p.repNs)
	for l, v := range sh {
		got["share."+l] = v
	}
	got["unattributed_share"] = rest
	if baseRep > 0 {
		got["trace_overhead_pct"] = 100 * (tracedRep - baseRep) / baseRep
	}
	got["go.gc_cycles"] = float64(gc1.NumGC-gc0.NumGC) / float64(len(plain))
	got["go.gc_pause_ms_total"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6 / float64(len(plain))
	got["go.heap_peak_mb"] = float64(gc1.HeapSys) / (1 << 20)
	got["host.cal_cpu_s"] = (rec.CalBefore.CPUSeconds + rec.CalAfter.CPUSeconds) / 2
	got["host.cal_mem_s"] = (rec.CalBefore.MemSeconds + rec.CalAfter.MemSeconds) / 2
	if s := strays(perLayer, got); len(s) > 0 {
		return nil, fmt.Errorf("%s: metrics not in the per-layer table: %v", w.name, s)
	}
	rec.Metrics = render(perLayer, got)
	rec.Derived["rep_s_untraced"] = baseRep
	if err := sl.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing %s: %w", tracePath, err)
	}
	return rec, nil
}

// column extracts one number from every rep.
func column(reps []repResult, f func(repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}
