package exp

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/span"
)

// LagOptions parameterizes E18, the end-to-end latency attribution
// sweep: the E17 farm and churn scripts, but instrumented with the
// causal timeline plane. Every trial stitches the full
// failure→reroute pipeline into one span and attributes the user-
// visible window stage by stage; the sweep reports per-stage latency
// quantiles and reconciles the span arithmetic against the serving
// plane's independently-measured error-seconds.
type LagOptions struct {
	Seed int64
	// FrontEnds sweeps the per-domain front-end count (farm size axis).
	FrontEnds []int
	// Schedules names the churn scripts to run ("failure", "move").
	Schedules []string
	// Trials per cell; trial i runs the same cell at Seed+i (detection
	// timing varies with the farm seed, spreading the quantiles).
	Trials int
	// Delay is the notification pipe's one-way latency — nonzero so the
	// notify→reroute stage is visible in the waterfall.
	Delay time.Duration
	// SessionsPerSec is the per-domain mean session arrival rate.
	SessionsPerSec float64
	// Warmup runs before measurement starts; Tail must stay error-free.
	Warmup time.Duration
	Tail   time.Duration
}

// DefaultLag matches E17's farm sizes and schedules (same base seed, so
// trial 0 replays E17's cells record-for-record) at the 500 ms pipe.
func DefaultLag() LagOptions {
	return LagOptions{
		Seed:           171,
		FrontEnds:      []int{2, 4, 8},
		Schedules:      []string{"failure", "move"},
		Trials:         3,
		Delay:          500 * time.Millisecond,
		SessionsPerSec: 200,
		Warmup:         5 * time.Second,
		Tail:           15 * time.Second,
	}
}

// QuickLag is the PR-gate variant: one farm size, two trials.
func QuickLag() LagOptions {
	o := DefaultLag()
	o.FrontEnds = []int{2}
	o.Trials = 2
	return o
}

// LagTrial is one stitched trial of a cell.
type LagTrial struct {
	// Stages is the primary span's per-stage attribution in milestone
	// order; the durations sum to TotalMs exactly (gap-free).
	Stages []LagTrialStage
	// TotalMs is the primary span's end-to-end duration.
	TotalMs float64
	// Spans counts all spans stitched from the trial (leader changes
	// ride along with the incident under churn).
	Spans int
	// MeasuredErrorSeconds is the serving plane's independent
	// measurement; PredictedErrorSeconds is the span arithmetic
	// (fault→reroute window / front-ends) — failure schedule only.
	MeasuredErrorSeconds  float64
	PredictedErrorSeconds float64
}

// LagTrialStage is one attributed stage of a trial's primary span.
type LagTrialStage struct {
	Stage string
	Ms    float64
}

// LagStage is one stage's latency quantiles across a cell's trials.
type LagStage struct {
	Stage string
	P50Ms float64
	P95Ms float64
	P99Ms float64
}

// LagPoint is one measured cell of the E18 sweep.
type LagPoint struct {
	FrontEnds int
	Schedule  string
	DelayMs   float64
	Trials    []LagTrial
	// Stages aggregates the per-stage attribution across trials, in
	// canonical pipeline order; Total aggregates the span totals.
	Stages []LagStage
	Total  LagStage
	// Findings collects span-audit and completeness violations (must be
	// empty for the sweep to pass).
	Findings []string
}

// lagTrialRun measures one trial: the E17 cell pipeline with a span
// collector attached, returning the trial plus any violations.
func lagTrialRun(o LagOptions, seed int64, frontEnds int, schedule string) (LagTrial, []string, error) {
	var tr LagTrial
	var bad []string
	coll := span.NewCollector(nil)
	f, plane, err := churnCell{seed, frontEnds, schedule, o.Delay, o.SessionsPerSec, o.Warmup}.run(coll)
	if err != nil {
		return tr, nil, err
	}
	for _, d := range plane.Stats() {
		tr.MeasuredErrorSeconds += d.ErrorSeconds
	}
	plane.Stop()

	records := coll.Records()
	prefix := fmt.Sprintf("fe=%d %s seed=%d: ", frontEnds, schedule, seed)
	for _, finding := range span.Audit(records, f) {
		bad = append(bad, prefix+finding)
	}
	spans := span.Stitch(records, f)
	tr.Spans = len(spans)
	// The per-stage histograms ride on the farm registry, same as every
	// other instrument (satellite surface for WriteProm assertions).
	span.Observe(f.Metrics, spans)

	// The primary span: the incident the schedule injected.
	wantKind, subject := span.KindFailure, "acme-fe-00"
	if schedule == "move" {
		wantKind, subject = span.KindPlannedMove, "globex-fe-00"
	}
	var primary *span.Span
	for _, sp := range spans {
		if sp.Kind == wantKind && sp.Subject == subject {
			primary = sp
			break
		}
	}
	if primary == nil {
		bad = append(bad, prefix+fmt.Sprintf("no %s span for %s among %d spans",
			wantKind, subject, len(spans)))
		return tr, bad, nil
	}
	if !primary.Complete() {
		bad = append(bad, prefix+fmt.Sprintf("primary span incomplete, missing %v", primary.Missing))
	}
	if !primary.Closed {
		bad = append(bad, prefix+"primary span never closed")
	}
	tr.TotalMs = durMs(primary.Total())
	for _, sd := range primary.StageDurations() {
		tr.Stages = append(tr.Stages, LagTrialStage{Stage: sd.Stage.String(), Ms: durMs(sd.D)})
	}
	if schedule == "failure" {
		fault, reroute := primary.Milestone(span.StFault), primary.Milestone(span.StReroute)
		switch {
		case fault == nil || reroute == nil:
			bad = append(bad, prefix+"failure span lacks fault/reroute milestones")
		default:
			// One of fe front-ends was dark from the kill until the
			// balancer pulled it: the users' share of that window is the
			// error-seconds the serving plane should have measured.
			tr.PredictedErrorSeconds = (reroute.T - fault.T).Seconds() / float64(frontEnds)
			tol := 0.35 + 0.10*tr.MeasuredErrorSeconds
			if diff := math.Abs(tr.PredictedErrorSeconds - tr.MeasuredErrorSeconds); diff > tol {
				bad = append(bad, prefix+fmt.Sprintf(
					"span arithmetic does not reconcile: predicted %.4f err-sec, measured %.4f (|diff| %.4f > tol %.4f)",
					tr.PredictedErrorSeconds, tr.MeasuredErrorSeconds, diff, tol))
			}
		}
	}
	return tr, bad, nil
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lagStageOrder is the canonical rendering order for attribution rows.
var lagStageOrder = []span.Stage{
	span.StFault, span.StSuspicion, span.StProbe, span.StVerdict,
	span.StTakeover, span.StPrepare, span.StCommit, span.StView,
	span.StReport, span.StNotify, span.StReroute, span.StMoveDone,
	span.StRestore, span.StClean,
}

// quantiles computes nearest-rank p50/p95/p99 over the sorted samples.
func quantiles(samples []float64) (p50, p95, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// LagCell measures one (farm size, schedule) cell: Trials independent
// trials, aggregated into per-stage quantiles.
func LagCell(o LagOptions, frontEnds int, schedule string) (LagPoint, error) {
	pt := LagPoint{
		FrontEnds: frontEnds,
		Schedule:  schedule,
		DelayMs:   durMs(o.Delay),
	}
	byStage := map[string][]float64{}
	var totals []float64
	for trial := 0; trial < o.Trials; trial++ {
		tr, bad, err := lagTrialRun(o, o.Seed+int64(trial), frontEnds, schedule)
		if err != nil {
			return pt, err
		}
		pt.Trials = append(pt.Trials, tr)
		pt.Findings = append(pt.Findings, bad...)
		for _, st := range tr.Stages {
			byStage[st.Stage] = append(byStage[st.Stage], st.Ms)
		}
		totals = append(totals, tr.TotalMs)
	}
	for _, st := range lagStageOrder {
		samples, ok := byStage[st.String()]
		if !ok {
			continue
		}
		p50, p95, p99 := quantiles(samples)
		pt.Stages = append(pt.Stages, LagStage{Stage: st.String(), P50Ms: p50, P95Ms: p95, P99Ms: p99})
	}
	p50, p95, p99 := quantiles(totals)
	pt.Total = LagStage{Stage: "total", P50Ms: p50, P95Ms: p95, P99Ms: p99}
	return pt, nil
}

// LagSweep measures every cell.
func LagSweep(o LagOptions) ([]LagPoint, error) {
	type cell struct {
		fe    int
		sched string
	}
	var cells []cell
	for _, fe := range o.FrontEnds {
		for _, s := range o.Schedules {
			cells = append(cells, cell{fe, s})
		}
	}
	points := make([]LagPoint, len(cells))
	err := each(len(cells), func(i int) (err error) {
		points[i], err = LagCell(o, cells[i].fe, cells[i].sched)
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// lagSanity returns one message per violated acceptance property:
// every trial's audit and completeness findings (already collected per
// point), plus monotone quantiles per stage.
func lagSanity(points []LagPoint) []string {
	var bad []string
	for _, pt := range points {
		bad = append(bad, pt.Findings...)
		for _, st := range append(append([]LagStage(nil), pt.Stages...), pt.Total) {
			if st.P50Ms > st.P95Ms || st.P95Ms > st.P99Ms {
				bad = append(bad, fmt.Sprintf("fe=%d %s: stage %s quantiles not monotone (%.3f/%.3f/%.3f)",
					pt.FrontEnds, pt.Schedule, st.Stage, st.P50Ms, st.P95Ms, st.P99Ms))
			}
		}
	}
	return bad
}

// Lag runs E18 and renders the stage-attribution table. The returned
// count is the number of violated sanity properties (0 on a healthy
// sweep).
func Lag(o LagOptions) (*Table, int, error) {
	points, err := LagSweep(o)
	if err != nil {
		return nil, 0, err
	}
	bad := lagSanity(points)

	t := &Table{
		ID: "E18/lag",
		Title: fmt.Sprintf("end-to-end latency attribution: %d farm sizes x %v, %d trials each, %.0f ms pipe",
			len(o.FrontEnds), o.Schedules, o.Trials, durMs(o.Delay)),
		Columns: []string{"fe/dom", "schedule", "stage", "p50(ms)", "p95(ms)", "p99(ms)"},
	}
	for _, pt := range points {
		rows := append(append([]LagStage(nil), pt.Stages...), pt.Total)
		for _, st := range rows {
			t.AddRow(
				fmt.Sprintf("%d", pt.FrontEnds),
				pt.Schedule,
				st.Stage,
				fmt.Sprintf("%.1f", st.P50Ms),
				fmt.Sprintf("%.1f", st.P95Ms),
				fmt.Sprintf("%.1f", st.P99Ms),
			)
		}
	}
	t.Note("each stage row is the latency attributed to reaching that milestone from the previous one; stages sum to total exactly (gap-free)")
	t.Note("failure: fault->suspicion dominates (detection); notify->reroute is the injected pipe delay")
	t.Note("move: the span opens at MoveStarted — reroute after one pipe delay, then rejoin, correlation, restore")
	for _, m := range bad {
		t.Note("SANITY FAILED: %s", m)
	}
	if len(bad) == 0 {
		t.Note("sanity: every incident closed into a complete, monotone, gap-free span; failure-cell span arithmetic reconciles with measured error-seconds")
	}
	return t, len(bad), nil
}
