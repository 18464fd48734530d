package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/central"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/trace"
)

const (
	churnFrontEnds = 16
	churnBackEnds  = 4
	churnRounds    = 30
	// Every fifth incident is a planned move, the rest are kills.
	churnMoveEvery = 5
	// churnGap spaces the incidents so each one's detection, recommit,
	// report and reroute finish before the next starts.
	churnGap = 24 * time.Second
	// churnSettle outlasts Central's 60 s move window, after which the
	// last incident must have closed.
	churnSettle   = 90 * time.Second
	churnDownFor  = 12 * time.Second
	churnSessions = 200
	churnPipe     = 500 * time.Millisecond
)

// churnSpec is the chaos-regression farm (aggressive timers, flight
// recorder and journal on) grown to 16 front-ends and 4 back-ends per
// domain.
func churnSpec(seed int64) farm.Spec {
	cfg := core.DefaultConfig()
	cfg.BeaconPhase = 2 * time.Second
	cfg.BeaconInterval = 500 * time.Millisecond
	cfg.LeaderBeaconInterval = 1 * time.Second
	cfg.StableWait = 1 * time.Second
	cfg.DeferTimeout = 3 * time.Second
	cfg.DetectorParams.Interval = 500 * time.Millisecond
	cfg.OrphanTimeout = 6 * time.Second
	cfg.ConsensusWindow = 1 * time.Second
	cfg.EscalationPatience = 3 * time.Second
	cc := central.DefaultConfig()
	cc.StabilizeWait = 3 * time.Second
	return farm.Spec{
		Seed:       seed,
		AdminNodes: 3,
		Domains: []farm.DomainSpec{
			{Name: "acme", FrontEnds: churnFrontEnds, BackEnds: churnBackEnds},
			{Name: "globex", FrontEnds: churnFrontEnds, BackEnds: churnBackEnds},
		},
		NodesPerSwitch: 7,
		Core:           cfg,
		Central:        cc,
		StartSkew:      1 * time.Second,
		RecordEvents:   true,
		Trace:          true,
		Journal:        true,
	}
}

// churnSchedule draws the cell's fault script from the seed: one
// incident per round on a front-end — four node kills (each followed by
// its restart), then one planned domain move, repeating — alternating
// between the two domains. The seed decides which node gets which
// incident and no node is hit twice; two rules keep the amount of work
// the same for every seed (README.md, "The churn script"):
//
//   - a segment's leader (its highest address) is never a victim: the
//     cascade a leader's death and return sets off left 1.6–4.0 k trace
//     records depending on timing, a member's 0.8 k;
//   - a domain's movers leave in address order, so that every node moving
//     into the domain with the lower addresses outranks that segment's
//     leader, the previous mover included, and re-forms the group; in
//     shuffled order one to three of them did.
//
// README.md ("Open findings") says why adapter faults, switch kills,
// partitions and failovers are left out of the script.
func churnSchedule(seed int64, topo check.Topology) check.Schedule {
	rng := rand.New(rand.NewSource(seed))
	type victims struct{ kills, moves []string }
	moveRounds := churnRounds / churnMoveEvery
	byDomain := make([]victims, len(topo.Domains))
	for d, name := range topo.Domains {
		var fes []string // in address order; the last one leads the segment
		for _, n := range topo.Nodes {
			if n.Role == "frontend" && n.Domain == name {
				fes = append(fes, n.Name)
			}
		}
		members := rng.Perm(len(fes) - 1)
		// Moves alternate between the domains, starting with the first.
		nMoves := (moveRounds + len(topo.Domains) - 1 - d) / len(topo.Domains)
		movers := members[:nMoves]
		sort.Ints(movers)
		for _, i := range movers {
			byDomain[d].moves = append(byDomain[d].moves, fes[i])
		}
		for _, i := range members[nMoves:] {
			byDomain[d].kills = append(byDomain[d].kills, fes[i])
		}
	}
	next := func(q *[]string) string {
		n := (*q)[0]
		*q = (*q)[1:]
		return n
	}
	var ops []check.Op
	var t time.Duration
	kills, moves := 0, 0
	for i := 0; i < churnRounds; i++ {
		t += churnGap
		if i%churnMoveEvery == churnMoveEvery-1 {
			from := moves % len(byDomain)
			moves++
			to := topo.Domains[(from+1)%len(byDomain)]
			ops = append(ops, check.Op{At: t, Kind: check.OpMoveDomain, Node: next(&byDomain[from].moves), Target: to})
			continue
		}
		n := next(&byDomain[kills%len(byDomain)].kills)
		kills++
		ops = append(ops,
			check.Op{At: t, Kind: check.OpKillNode, Node: n},
			check.Op{At: t + churnDownFor, Kind: check.OpRestartNode, Node: n})
	}
	return check.Schedule{Seed: seed, Ops: ops, Settle: churnSettle}
}

// churn is a farm in steady state, with the invariant engine, the span
// collector and a serving plane attached, driven through a fault script.
type churn struct {
	f      *farm.Farm
	engine *check.Engine
	coll   *span.Collector
	plane  *serve.Plane
	sched  check.Schedule
	cap    *capture
	events uint64

	// Marks taken when the cell starts, so set-up is not counted.
	fired0, msgs0, trace0 uint64
	violations0           int
	simStart              time.Duration

	records []trace.Record
	audit   []string
	spans   []*span.Span
}

func setupChurn(seed int64, cap *capture) (instance, error) {
	f, err := farm.Build(churnSpec(seed))
	if err != nil {
		return nil, err
	}
	c := &churn{f: f, cap: cap}
	c.engine = check.NewEngine(f)
	c.engine.Attach(f.Trace)
	c.coll = span.NewCollector(nil)
	c.coll.Attach("farm", f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		return nil, fmt.Errorf("initial stabilisation failed")
	}
	c.plane = f.AttachServe(serve.Config{Seed: seed, SessionsPerSec: churnSessions},
		serve.NewDelayedPipe(f.Clock(), churnPipe))
	c.plane.Start()
	f.RunFor(5 * time.Second)
	c.plane.Workload.ResetStats()
	c.sched = churnSchedule(seed, f.CheckTopology())
	if cap != nil {
		f.Bus.Subscribe(func(event.Event) { c.events++ })
		cap.farm = f
	}
	return c, nil
}

func (c *churn) run(sl *spanLog) error {
	f := c.f
	if c.cap != nil {
		// Attach at the cell boundary so the capture holds the cell's
		// traffic only; the tap forwards to the registry it displaces.
		c.cap.attachNet(f.Net, f.Metrics)
		f.Trace.AddSink(c.cap.sink)
		c.cap.pendingPeak = f.Sched.Pending()
		c.events = 0
	}
	c.fired0, c.msgs0, c.trace0 = f.Fired(), f.Metrics.Total().Messages, f.Trace.Total()
	c.violations0 = len(c.engine.Violations())
	c.simStart = f.Now()
	sl.do("check.Schedule.Run", func() { c.sched.Run(f) })
	sl.do("span.Collector.Records", func() { c.records = c.coll.Records() })
	sl.do("span.Audit", func() { c.audit = span.Audit(c.records, f) })
	sl.do("span.Stitch", func() { c.spans = span.Stitch(c.records, f) })
	return nil
}

func (c *churn) close() { c.plane.Stop() }

func (c *churn) check() outcome {
	f := c.f
	fired := f.Fired() - c.fired0
	adapters := len(f.AdapterIPs())
	out := outcome{
		ops:       float64(fired),
		attempted: len(c.sched.Ops),
		exact:     map[string]float64{},
		pins: map[string]float64{
			"fired": float64(fired), "records": float64(len(c.records)), "spans": float64(len(c.spans)),
		},
	}
	violations := c.engine.Violations()[c.violations0:]
	for _, v := range violations {
		out.problems = append(out.problems, "invariant: "+v.String())
	}
	if c.violations0 > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%d invariant violations during set-up (cold start), not counted: first %s",
			c.violations0, c.engine.Violations()[0].String()))
	}
	converge := f.ConvergenceFailures()
	for _, m := range converge {
		out.problems = append(out.problems, "convergence: "+m)
	}
	for _, m := range c.audit {
		out.problems = append(out.problems, "span audit: "+m)
	}
	var routing []string
	if !c.plane.Drained() {
		routing = []string{"notification pipe still holds events after settle"}
	} else if len(converge) == 0 {
		routing = c.plane.Audit(f)
	}
	for _, m := range routing {
		out.problems = append(out.problems, "serve audit: "+m)
	}
	out.failed = len(violations) + c.engine.Dropped() + len(converge) + len(c.audit) + len(routing)

	// Fault → reroute over every stitched failure span that reached both
	// milestones.
	var reroutes []float64
	open := 0
	for _, sp := range c.spans {
		if sp.Kind != span.KindFailure {
			continue
		}
		if !sp.Closed {
			open++
		}
		fault, reroute := sp.Milestone(span.StFault), sp.Milestone(span.StReroute)
		if fault != nil && reroute != nil {
			reroutes = append(reroutes, float64(reroute.T-fault.T)/float64(time.Millisecond))
		}
	}
	sort.Float64s(reroutes)
	if len(reroutes) == 0 {
		out.problems = append(out.problems, "no failure span reached a reroute")
	} else {
		out.exact["sim_reroute_ms_p50"] = reroutes[(len(reroutes)-1)/2]
	}
	var requests, misroutes uint64
	for _, d := range c.plane.Stats() {
		out.exact["sim_error_s"] += d.ErrorSeconds
		requests += d.Requests
		misroutes += d.Misroutes
	}
	msgs := f.Metrics.Total().Messages - c.msgs0
	out.exact["msgs_per_adapter"] = float64(msgs) / float64(adapters)
	out.notes = append(out.notes, fmt.Sprintf(
		"%d ops over %v simulated, %d events, %d records, %d spans (%d failure spans rerouted, %d left open by a Central regime change)",
		len(c.sched.Ops), f.Now()-c.simStart, fired, len(c.records), len(c.spans), len(reroutes), open))

	if c.cap != nil {
		out.counts = farmCounts(f, c.cap, c.events)
		out.counts["sim.events_fired"] = float64(fired)
		out.counts["trace.records"] = float64(f.Trace.Total() - c.trace0)
		out.counts["check.violations"] = float64(len(violations))
		out.counts["span.spans"] = float64(len(c.spans))
		out.counts["span.audit_findings"] = float64(len(c.audit))
		out.counts["serve.requests"] = float64(requests)
		out.counts["serve.misroutes"] = float64(misroutes)
		out.counts["serve.notify_lag_ms_max"] = float64(c.plane.Balancer.MaxLag()) / float64(time.Millisecond)
		c.cap.spanRecords = c.records
		c.cap.simSeconds = (f.Now() - c.simStart).Seconds()
	}
	return out
}
