package exp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/trace"
)

// The serving-plane rows: what users would have seen under churn (E17),
// and the same cells stitched into spans with the latency attributed
// stage by stage (E18). Both run one pipeline: a two-domain farm with the
// chaos timers stabilizes, the serving plane attaches behind a
// notification pipe of the cell's delay and warms up for 5 s, its
// statistics are zeroed, the churn schedule plays, and the farm must
// reconverge and the pipe drain.

// churnCell is one cell of that pipeline: front ends per domain, the
// churn schedule by name, and the pipe's one-way delay.
type churnCell struct {
	fe       int
	schedule string
	delay    time.Duration
}

// churnOps are the schedules. Both hit a front end, in the serving
// plane's blast radius. failure, an unannounced kill and a restart 20 s
// later, costs detection latency plus notification delay; move, a
// Central-initiated domain move, pre-announces the drain (MoveStarted),
// so it costs the notification delay alone.
var churnOps = map[string]string{
	"failure": "@0s kill acme-fe-00\n@20s restart acme-fe-00\nsettle 40s",
	"move":    "@0s move globex-fe-00 to acme\nsettle 60s",
}

// churnPlan builds the pipeline's farm and stages. The plane is set once
// the farm is stable and still runs when the stages are done; drained,
// when set, reads the trial once the pipe has drained.
func churnPlan(c churnCell, seed int64, plane **serve.Plane, drained func(t *trial) error) plan {
	cfg, cc := chaosTimers()
	return plan{
		spec: farm.Spec{Seed: seed, AdminNodes: 2, Domains: []farm.DomainSpec{
			{Name: "acme", FrontEnds: c.fe, BackEnds: 1}, {Name: "globex", FrontEnds: c.fe, BackEnds: 1},
		}, Core: cfg, Central: cc, StartSkew: 1 * time.Second},
		stages: []stage{
			{stable: 2 * time.Minute, at: func(t *trial) error {
				*plane = t.AttachServe(serve.Config{Seed: seed, SessionsPerSec: 200}, serve.NewDelayedPipe(t.Clock(), c.delay))
				(*plane).Start()
				return nil
			}},
			{run: 5 * time.Second, at: func(*trial) error { (*plane).Workload.ResetStats(); return nil }, ops: churnOps[c.schedule]},
			{stable: time.Minute},
			{run: c.delay + time.Second, at: func(t *trial) error {
				if !(*plane).Drained() {
					return fmt.Errorf("cell %+v: notification pipe still holds events after settle", c)
				}
				if drained == nil {
					return nil
				}
				return drained(t)
			}},
		},
	}
}

// servePoint is one E17 cell's measure, both domains together.
type servePoint struct {
	requests, errors uint64
	errorSeconds     float64
	peakSessions     int64
	maxLag           time.Duration
	// audit counts stale routes after settle (must be 0); recovered says
	// a 15 s tail window after the pipe drained accrued no new
	// error-seconds.
	audit     int
	recovered bool
}

// servePlan reads what the churn cost once the pipe has drained, then
// zeroes the statistics for the tail window.
func servePlan(c churnCell, seed int64, m *servePoint) plan {
	var plane *serve.Plane
	p := churnPlan(c, seed, &plane, func(t *trial) error {
		m.audit = len(plane.Audit(t.Farm))
		for _, d := range plane.Stats() {
			m.requests += d.Requests
			m.errors += d.Errors
			m.errorSeconds += d.ErrorSeconds
			m.peakSessions = max(m.peakSessions, d.PeakSessions)
		}
		m.maxLag = plane.Balancer.MaxLag()
		plane.Workload.ResetStats()
		return nil
	})
	p.stages = append(p.stages, stage{run: 15 * time.Second})
	p.end = func(*trial) error {
		m.recovered = true
		for _, d := range plane.Stats() {
			m.recovered = m.recovered && d.ErrorSeconds == 0
		}
		plane.Stop()
		return nil
	}
	return p
}

func churnCells(fes []int, schedules []string, delays ...time.Duration) []churnCell {
	var out []churnCell
	for _, fe := range fes {
		for _, s := range schedules {
			for _, d := range delays {
				out = append(out, churnCell{fe, s, d})
			}
		}
	}
	return out
}

// serveSanity checks the sweep's acceptance properties, one message per
// violation: every cell recovered (tail window clean) with a clean audit;
// an unannounced kill is never free; and on the failure schedule,
// error-seconds increase strictly with the notification delay at every
// farm size — the headline "notification latency buys user pain" curve.
func serveSanity(cells []churnCell, ms [][]servePoint) []string {
	var bad []string
	for i, c := range cells {
		pt := ms[i][0]
		if pt.audit > 0 {
			bad = append(bad, fmt.Sprintf("fe=%d %s delay=%.0fms: %d stale routes after settle", c.fe, c.schedule, durMs(c.delay), pt.audit))
		}
		if !pt.recovered {
			bad = append(bad, fmt.Sprintf("fe=%d %s delay=%.0fms: error-seconds still accruing after settle", c.fe, c.schedule, durMs(c.delay)))
		}
		if c.schedule != "failure" {
			continue
		}
		if pt.errorSeconds <= 0 {
			bad = append(bad, fmt.Sprintf("fe=%d failure delay=%.0fms: unannounced kill cost no error-seconds", c.fe, durMs(c.delay)))
		}
		// Cells run delay-ascending within a size and schedule.
		if p := i - 1; p >= 0 && cells[p].fe == c.fe && cells[p].schedule == "failure" && pt.errorSeconds <= ms[p][0].errorSeconds {
			bad = append(bad, fmt.Sprintf("fe=%d failure: error-seconds not monotone in delay (%.3f at %v -> %.3f at %v)",
				c.fe, ms[p][0].errorSeconds, cells[p].delay, pt.errorSeconds, c.delay))
		}
	}
	return bad
}

// serveRow is E17, the user-visible-impact sweep: farm size x churn
// schedule x notification delay, with the serving plane measuring what
// users would have seen. The headline curve is error-seconds vs
// notification delay: how much user pain each second of notification
// latency buys. The row fails when a sanity property does not hold.
var serveRow = row[churnCell, servePoint]{
	cells: churnCells([]int{2, 4, 8}, []string{"failure", "move"}, 0, 500*time.Millisecond, 2*time.Second),
	quick: 6,
	seeds: []int64{171},
	plan:  servePlan,
	table: func(cells []churnCell, ms [][]servePoint) (*Table, int) {
		bad, delays := serveSanity(cells, ms), 0
		for _, c := range cells {
			if c.fe == cells[0].fe && c.schedule == cells[0].schedule {
				delays++
			}
		}
		t := &Table{
			ID: "E17/serve",
			Title: fmt.Sprintf("serving plane under churn: %d farm sizes x [failure move] x %d notification delays, 200 sessions/s/domain",
				len(cells)/2/delays, delays),
			Columns: []string{"fe/dom", "schedule", "delay(ms)", "requests", "errors", "err-sec", "peak sess", "lag max(ms)", "clean"},
		}
		for i, c := range cells {
			pt, clean := ms[i][0], "yes"
			if pt.audit > 0 || !pt.recovered {
				clean = "NO"
			}
			t.addRow(fmt.Sprint(c.fe), c.schedule, fmt.Sprintf("%.0f", durMs(c.delay)), fmt.Sprint(pt.requests),
				fmt.Sprint(pt.errors), fmt.Sprintf("%.2f", pt.errorSeconds), fmt.Sprint(pt.peakSessions),
				fmt.Sprintf("%.0f", durMs(pt.maxLag)), clean)
		}
		t.note("err-sec integrates the failing traffic fraction over time; 1.0 = the whole farm dark for one second")
		t.note("failure: unannounced kill + restart — cost = detection latency + notification delay")
		t.note("move: Central-initiated domain move — MoveStarted pre-drains, so cost ~ notification delay alone")
		for _, m := range bad {
			t.note("SANITY FAILED: %s", m)
		}
		if len(bad) == 0 {
			t.note("sanity: all cells recovered with clean audits; error-seconds strictly increase with delay on the failure schedule")
		}
		return t, len(bad)
	},
}

// lagTrial is one E18 trial's measure: the primary span's stages in
// milestone order (gap-free: they sum to total exactly), and the span
// audit, completeness and reconciliation findings.
type lagTrial struct {
	stages   []span.StageDuration
	total    time.Duration
	findings []string
}

// lagPlan runs the pipeline with every non-beacon record kept, then
// stitches the trial into spans and attributes the user-visible window
// stage by stage. On the failure schedule the span arithmetic must
// reconcile with the serving plane: one of fe front ends was dark from
// the kill until the balancer pulled it, and the users' share of that
// window is the error-seconds the plane should have measured.
func lagPlan(c churnCell, seed int64, m *lagTrial) plan {
	var plane *serve.Plane
	var recs []trace.Record
	p := churnPlan(c, seed, &plane, nil)
	p.sink = func(_ *trial, r trace.Record) {
		if span.DefaultFilter(r) {
			recs = append(recs, r)
		}
	}
	p.end = func(t *trial) error {
		measured := 0.0
		for _, d := range plane.Stats() {
			measured += d.ErrorSeconds
		}
		plane.Stop()
		finding := func(format string, args ...any) {
			m.findings = append(m.findings, fmt.Sprintf("fe=%d %s seed=%d: ", c.fe, c.schedule, seed)+fmt.Sprintf(format, args...))
		}
		for _, f := range span.Audit(recs, t.Farm) {
			finding("%s", f)
		}
		spans := span.Stitch(recs, t.Farm)
		span.Observe(t.Metrics, spans) // the per-stage histograms ride on the farm registry
		kind, subject := span.KindFailure, "acme-fe-00"
		if c.schedule == "move" {
			kind, subject = span.KindPlannedMove, "globex-fe-00"
		}
		i := slices.IndexFunc(spans, func(sp *span.Span) bool { return sp.Kind == kind && sp.Subject == subject })
		if i < 0 {
			finding("no %s span for %s among %d spans", kind, subject, len(spans))
			return nil
		}
		primary := spans[i]
		if !primary.Complete() {
			finding("primary span incomplete, missing %v", primary.Missing)
		}
		if !primary.Closed {
			finding("primary span never closed")
		}
		m.total, m.stages = primary.Total(), primary.StageDurations()
		if c.schedule != "failure" {
			return nil
		}
		fault, reroute := primary.Milestone(span.StFault), primary.Milestone(span.StReroute)
		if fault == nil || reroute == nil {
			finding("failure span lacks fault/reroute milestones")
			return nil
		}
		predicted := (reroute.T - fault.T).Seconds() / float64(c.fe)
		if diff, tol := math.Abs(predicted-measured), 0.35+0.10*measured; diff > tol {
			finding("span arithmetic does not reconcile: predicted %.4f err-sec, measured %.4f (|diff| %.4f > tol %.4f)",
				predicted, measured, diff, tol)
		}
		return nil
	}
	return p
}

// quantiles computes nearest-rank p50/p95/p99 over the samples.
func quantiles(samples []float64) [3]float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.50, 0.95, 0.99} {
		q[i] = s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
	}
	return q
}

// lag is E18, the end-to-end latency attribution sweep: the E17 farm and
// churn schedules at the 500 ms pipe (nonzero, so the notify→reroute
// stage shows), each cell's trials at seeds 171 on (trial 0 replays
// E17's cell record for record; detection timing varies with the seed,
// spreading the quantiles), with per-stage latency quantiles across a
// cell's trials. The row fails on any audit, completeness or
// reconciliation finding and on non-monotone quantiles.
var lag = row[churnCell, lagTrial]{
	cells:      churnCells([]int{2, 4, 8}, []string{"failure", "move"}, 500*time.Millisecond),
	quick:      2,
	seeds:      []int64{171, 172, 173},
	quickSeeds: 2,
	plan:       lagPlan,
	table: func(cells []churnCell, ms [][]lagTrial) (*Table, int) {
		t := &Table{
			ID: "E18/lag",
			Title: fmt.Sprintf("end-to-end latency attribution: %d farm sizes x [failure move], %d trials each, 500 ms pipe",
				len(cells)/2, len(ms[0])),
			Columns: []string{"fe/dom", "schedule", "stage", "p50(ms)", "p95(ms)", "p99(ms)"},
		}
		var bad []string
		for i, c := range cells {
			byStage := map[span.Stage][]float64{}
			var totals []float64
			for _, tr := range ms[i] {
				bad = append(bad, tr.findings...)
				for _, sd := range tr.stages {
					byStage[sd.Stage] = append(byStage[sd.Stage], durMs(sd.D))
				}
				totals = append(totals, durMs(tr.total))
			}
			row := func(name string, samples []float64) {
				q := quantiles(samples)
				if q[0] > q[1] || q[1] > q[2] {
					bad = append(bad, fmt.Sprintf("fe=%d %s: stage %s quantiles not monotone (%.3f/%.3f/%.3f)",
						c.fe, c.schedule, name, q[0], q[1], q[2]))
				}
				t.addRow(fmt.Sprint(c.fe), c.schedule, name,
					fmt.Sprintf("%.1f", q[0]), fmt.Sprintf("%.1f", q[1]), fmt.Sprintf("%.1f", q[2]))
			}
			for st := span.StFault; st <= span.StClean; st++ { // the stages' canonical order
				if samples, ok := byStage[st]; ok {
					row(st.String(), samples)
				}
			}
			row("total", totals)
		}
		t.note("each stage row is the latency attributed to reaching that milestone from the previous one; stages sum to total exactly (gap-free)")
		t.note("failure: fault->suspicion dominates (detection); notify->reroute is the injected pipe delay")
		t.note("move: the span opens at MoveStarted — reroute after one pipe delay, then rejoin, correlation, restore")
		for _, m := range bad {
			t.note("SANITY FAILED: %s", m)
		}
		if len(bad) == 0 {
			t.note("sanity: every incident closed into a complete, monotone, gap-free span; failure-cell span arithmetic reconciles with measured error-seconds")
		}
		return t, len(bad)
	},
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
