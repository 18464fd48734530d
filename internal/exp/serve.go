package exp

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/span"
)

// ServeOptions parameterizes E17, the user-visible-impact sweep: a
// two-domain farm at several sizes, a churn schedule (chaos DSL), and a
// notification-pipe delay, with the serving plane measuring what users
// would have seen. The headline curve is error-seconds vs notification
// delay: how much user pain each second of notification latency buys.
type ServeOptions struct {
	Seed int64
	// FrontEnds sweeps the per-domain front-end count (farm size axis).
	FrontEnds []int
	// Schedules names the churn scripts to run ("failure", "move").
	Schedules []string
	// Delays sweeps the notification pipe's one-way latency.
	Delays []time.Duration
	// SessionsPerSec is the per-domain mean session arrival rate.
	SessionsPerSec float64
	// Warmup runs before measurement starts (sessions build up).
	Warmup time.Duration
	// Tail is the post-settle window that must accrue zero new
	// error-seconds for the cell to count as recovered.
	Tail time.Duration
}

// DefaultServe sweeps 3 farm sizes x 2 schedules x 3 delays.
func DefaultServe() ServeOptions {
	return ServeOptions{
		Seed:           171,
		FrontEnds:      []int{2, 4, 8},
		Schedules:      []string{"failure", "move"},
		Delays:         []time.Duration{0, 500 * time.Millisecond, 2 * time.Second},
		SessionsPerSec: 200,
		Warmup:         5 * time.Second,
		Tail:           15 * time.Second,
	}
}

// ServePoint is one measured cell of the E17 sweep.
type ServePoint struct {
	FrontEnds int
	Schedule  string
	DelayMs   float64
	// Aggregates across both domains for the measurement window.
	Requests     uint64
	Errors       uint64
	Misroutes    uint64
	Unrouted     uint64
	ErrorSeconds float64
	PeakSessions int64
	// Notification-path observability.
	Notifications uint64
	MaxLagMs      float64
	// Invariants: stale routes after settle (must be 0) and whether the
	// tail window accrued zero new error-seconds.
	AuditFindings int
	Recovered     bool
	// Domains keeps the per-domain breakdown.
	Domains []serve.DomainStats
}

// serveSpec is the E17 farm: two equal domains with the chaos harness's
// aggressive timers so failure detection takes seconds, not minutes.
func serveSpec(seed int64, frontEnds int) farm.Spec {
	cfg, cc := chaosTimers()
	return farm.Spec{
		Seed:       seed,
		AdminNodes: 2,
		Domains: []farm.DomainSpec{
			{Name: "acme", FrontEnds: frontEnds, BackEnds: 1},
			{Name: "globex", FrontEnds: frontEnds, BackEnds: 1},
		},
		Core:      cfg,
		Central:   cc,
		StartSkew: 1 * time.Second,
	}
}

// serveChurn builds the cell's churn script in the chaos DSL. Both
// scripts target a front-end so the serving plane is in the blast
// radius.
func serveChurn(schedule string) (check.Schedule, error) {
	switch schedule {
	case "failure":
		// Unannounced kill, restart 20s later: the window where users see
		// errors is detection latency + notification delay.
		return check.Schedule{Ops: []check.Op{
			{At: 0, Kind: check.OpKillNode, Node: "acme-fe-00"},
			{At: 20 * time.Second, Kind: check.OpRestartNode, Node: "acme-fe-00"},
		}, Settle: 40 * time.Second}, nil
	case "move":
		// Central-initiated domain move: MoveStarted pre-announces the
		// drain, so the only user-visible window is the notification
		// delay itself.
		return check.Schedule{Ops: []check.Op{
			{At: 0, Kind: check.OpMoveDomain, Node: "globex-fe-00", Target: "acme"},
		}, Settle: 60 * time.Second}, nil
	default:
		return check.Schedule{}, fmt.Errorf("exp: unknown serve schedule %q", schedule)
	}
}

// churnCell is one run of the pipeline E17 and E18 share.
type churnCell struct {
	Seed           int64
	FrontEnds      int
	Schedule       string
	Delay          time.Duration
	SessionsPerSec float64
	Warmup         time.Duration
}

func (c churnCell) String() string {
	return fmt.Sprintf("fe=%d %s delay=%v seed=%d", c.FrontEnds, c.Schedule, c.Delay, c.Seed)
}

// run builds the cell's farm, stabilises it, attaches the serving plane
// behind a pipe of the cell's delay, warms up, zeroes the statistics,
// plays the churn schedule and waits for the farm to reconverge and the
// pipe to drain. The plane is still running when it returns. With a
// collector the flight recorder is on (capture does not perturb virtual
// time) and the collector is attached before Start, so it sees the whole
// run whatever the recorder ring's capacity.
func (c churnCell) run(coll *span.Collector) (*farm.Farm, *serve.Plane, error) {
	sched, err := serveChurn(c.Schedule)
	if err != nil {
		return nil, nil, err
	}
	spec := serveSpec(c.Seed, c.FrontEnds)
	spec.Trace = coll != nil
	f, err := farm.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	if coll != nil {
		coll.Attach("farm", f.Trace)
	}
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		return nil, nil, fmt.Errorf("exp: churn cell (%v) never stabilized", c)
	}
	plane := f.AttachServe(
		serve.Config{Seed: c.Seed, SessionsPerSec: c.SessionsPerSec},
		serve.NewDelayedPipe(f.Clock(), c.Delay))
	plane.Start()
	f.RunFor(c.Warmup)
	plane.Workload.ResetStats()

	sched.Run(f)
	if _, ok := f.RunUntilStable(time.Minute); !ok {
		return nil, nil, fmt.Errorf("exp: churn cell (%v) did not reconverge", c)
	}
	// Let the pipe flush anything still in flight.
	f.RunFor(c.Delay + time.Second)
	if !plane.Drained() {
		return nil, nil, fmt.Errorf("exp: churn cell (%v): notification pipe still holds events after settle", c)
	}
	return f, plane, nil
}

// ServeCell measures one (farm size, schedule, delay) cell. Everything
// runs inside the deterministic kernel: the same options produce
// bit-identical points.
func ServeCell(o ServeOptions, frontEnds int, schedule string, delay time.Duration) (ServePoint, error) {
	pt := ServePoint{
		FrontEnds: frontEnds,
		Schedule:  schedule,
		DelayMs:   durMs(delay),
	}
	f, plane, err := churnCell{o.Seed, frontEnds, schedule, delay, o.SessionsPerSec, o.Warmup}.run(nil)
	if err != nil {
		return pt, err
	}
	pt.AuditFindings = len(plane.Audit(f))

	pt.Domains = plane.Stats()
	for _, d := range pt.Domains {
		pt.Requests += d.Requests
		pt.Errors += d.Errors
		pt.Misroutes += d.Misroutes
		pt.Unrouted += d.Unrouted
		pt.ErrorSeconds += d.ErrorSeconds
		if d.PeakSessions > pt.PeakSessions {
			pt.PeakSessions = d.PeakSessions
		}
	}
	pt.Notifications = plane.Balancer.Notifications()
	pt.MaxLagMs = durMs(plane.Balancer.MaxLag())

	// Tail window: with the schedule over and every notification
	// delivered, the plane must serve cleanly again.
	plane.Workload.ResetStats()
	f.RunFor(o.Tail)
	pt.Recovered = true
	for _, d := range plane.Stats() {
		if d.ErrorSeconds > 0 {
			pt.Recovered = false
		}
	}
	plane.Stop()
	return pt, nil
}

// ServeSweep measures every cell.
func ServeSweep(o ServeOptions) ([]ServePoint, error) {
	type cell struct {
		fe    int
		sched string
		delay time.Duration
	}
	var cells []cell
	for _, fe := range o.FrontEnds {
		for _, s := range o.Schedules {
			for _, d := range o.Delays {
				cells = append(cells, cell{fe, s, d})
			}
		}
	}
	points := make([]ServePoint, len(cells))
	err := each(len(cells), func(i int) (err error) {
		points[i], err = ServeCell(o, cells[i].fe, cells[i].sched, cells[i].delay)
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// serveSanity checks the sweep's acceptance properties. Returns one
// message per violated property.
//
//   - every cell recovered (tail window clean) with a clean audit;
//   - the failure schedule always costs error-seconds (an unannounced
//     kill is never free);
//   - on the failure schedule, error-seconds increase strictly with the
//     injected notification delay at every farm size — the headline
//     "notification latency buys user pain" curve.
func serveSanity(o ServeOptions, points []ServePoint) []string {
	var bad []string
	for _, pt := range points {
		if pt.AuditFindings > 0 {
			bad = append(bad, fmt.Sprintf("fe=%d %s delay=%.0fms: %d stale routes after settle",
				pt.FrontEnds, pt.Schedule, pt.DelayMs, pt.AuditFindings))
		}
		if !pt.Recovered {
			bad = append(bad, fmt.Sprintf("fe=%d %s delay=%.0fms: error-seconds still accruing after settle",
				pt.FrontEnds, pt.Schedule, pt.DelayMs))
		}
		if pt.Schedule == "failure" && pt.ErrorSeconds <= 0 {
			bad = append(bad, fmt.Sprintf("fe=%d failure delay=%.0fms: unannounced kill cost no error-seconds",
				pt.FrontEnds, pt.DelayMs))
		}
	}
	for _, fe := range o.FrontEnds {
		prevDelay, prevES := time.Duration(-1), 0.0
		for _, d := range o.Delays {
			for _, pt := range points {
				if pt.FrontEnds != fe || pt.Schedule != "failure" ||
					pt.DelayMs != durMs(d) {
					continue
				}
				if prevDelay >= 0 && pt.ErrorSeconds <= prevES {
					bad = append(bad, fmt.Sprintf(
						"fe=%d failure: error-seconds not monotone in delay (%.3f at %v -> %.3f at %v)",
						fe, prevES, prevDelay, pt.ErrorSeconds, d))
				}
				prevDelay, prevES = d, pt.ErrorSeconds
			}
		}
	}
	return bad
}

// Serve runs E17 and renders the table. The returned count is the
// number of violated sanity properties (0 on a healthy sweep).
func Serve(o ServeOptions) (*Table, int, error) {
	points, err := ServeSweep(o)
	if err != nil {
		return nil, 0, err
	}
	bad := serveSanity(o, points)

	t := &Table{
		ID: "E17/serve",
		Title: fmt.Sprintf("serving plane under churn: %d farm sizes x %v x %d notification delays, %g sessions/s/domain",
			len(o.FrontEnds), o.Schedules, len(o.Delays), o.SessionsPerSec),
		Columns: []string{"fe/dom", "schedule", "delay(ms)", "requests", "errors", "err-sec", "peak sess", "lag max(ms)", "clean"},
	}
	for _, pt := range points {
		clean := "yes"
		if pt.AuditFindings > 0 || !pt.Recovered {
			clean = "NO"
		}
		t.AddRow(
			fmt.Sprintf("%d", pt.FrontEnds),
			pt.Schedule,
			fmt.Sprintf("%.0f", pt.DelayMs),
			fmt.Sprintf("%d", pt.Requests),
			fmt.Sprintf("%d", pt.Errors),
			fmt.Sprintf("%.2f", pt.ErrorSeconds),
			fmt.Sprintf("%d", pt.PeakSessions),
			fmt.Sprintf("%.0f", pt.MaxLagMs),
			clean,
		)
	}
	t.Note("err-sec integrates the failing traffic fraction over time; 1.0 = the whole farm dark for one second")
	t.Note("failure: unannounced kill + restart — cost = detection latency + notification delay")
	t.Note("move: Central-initiated domain move — MoveStarted pre-drains, so cost ~ notification delay alone")
	for _, m := range bad {
		t.Note("SANITY FAILED: %s", m)
	}
	if len(bad) == 0 {
		t.Note("sanity: all cells recovered with clean audits; error-seconds strictly increase with delay on the failure schedule")
	}
	return t, len(bad), nil
}
