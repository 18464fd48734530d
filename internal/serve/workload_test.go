package serve

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
)

// testPlane wires a serving plane over the fake farm on a fresh
// scheduler and bus.
func testPlane(t *testing.T, cfg Config, pipe Pipe) (*Plane, *fakeFarm, *sim.Scheduler, *event.Bus) {
	t.Helper()
	sched := sim.NewScheduler(cfg.Seed + 1)
	farm := newFakeFarm()
	bus := event.NewBus(false)
	p := Attach(cfg, simClock{sched}, bus, farm, farm, nil, nil, pipe)
	return p, farm, sched, bus
}

func statsFor(t *testing.T, p *Plane, dom string) DomainStats {
	t.Helper()
	for _, s := range p.Stats() {
		if s.Domain == dom {
			return s
		}
	}
	t.Fatalf("no stats for domain %q", dom)
	return DomainStats{}
}

func TestWorkloadHealthyFarmNoErrors(t *testing.T) {
	p, _, sched, _ := testPlane(t, Config{Seed: 3}, nil)
	p.Start()
	sched.RunFor(60 * time.Second)
	p.Stop()

	for _, s := range p.Stats() {
		if s.Requests == 0 {
			t.Fatalf("domain %s issued no requests", s.Domain)
		}
		if s.Errors != 0 || s.ErrorSeconds != 0 {
			t.Fatalf("healthy farm produced errors: %+v", s)
		}
		if s.PeakSessions == 0 {
			t.Fatalf("domain %s never had a session in flight", s.Domain)
		}
	}
}

// An unreported kill accrues error-seconds; once the notification lands
// the balancer routes around it and the accrual stops.
func TestWorkloadUnreportedFailureAccruesErrorSeconds(t *testing.T) {
	p, farm, sched, bus := testPlane(t, Config{Seed: 3}, nil)
	p.Start()
	sched.RunFor(30 * time.Second)

	// Ground truth: the node dies now. No notification yet.
	farm.dead["acme-fe-00"] = true
	sched.RunFor(10 * time.Second)
	dark := statsFor(t, p, "acme")
	if dark.ErrorSeconds < 4 || dark.ErrorSeconds > 6 {
		// Half the acme traffic fails for 10s => ~5 error-seconds.
		t.Fatalf("10s unreported half-failure: ErrorSeconds = %.2f, want ~5", dark.ErrorSeconds)
	}
	if dark.Misroutes == 0 {
		t.Fatal("no misroutes counted during unreported failure")
	}

	// The notification arrives; errors stop accruing.
	bus.Publish(event.Event{Kind: event.NodeFailed, Node: "acme-fe-00", Time: sched.Now()})
	after := statsFor(t, p, "acme")
	sched.RunFor(20 * time.Second)
	final := statsFor(t, p, "acme")
	if final.ErrorSeconds != after.ErrorSeconds {
		t.Fatalf("errors kept accruing after notification: %.3f -> %.3f",
			after.ErrorSeconds, final.ErrorSeconds)
	}
	if findings := p.Audit(farm); len(findings) != 0 {
		t.Fatalf("audit after notification: %v", findings)
	}
	p.Stop()
}

func TestWorkloadAllBackendsDownCountsUnrouted(t *testing.T) {
	p, _, sched, bus := testPlane(t, Config{Seed: 3}, nil)
	p.Start()
	sched.RunFor(10 * time.Second)

	bus.Publish(event.Event{Kind: event.NodeFailed, Node: "acme-fe-00", Time: sched.Now()})
	bus.Publish(event.Event{Kind: event.NodeFailed, Node: "acme-fe-01", Time: sched.Now()})
	sched.RunFor(10 * time.Second)
	p.Stop()

	s := statsFor(t, p, "acme")
	if s.Unrouted == 0 {
		t.Fatalf("no unrouted requests with the whole domain down: %+v", s)
	}
	if s.ErrorSeconds < 9 {
		// Every acme request fails for 10s => ~10 error-seconds.
		t.Fatalf("ErrorSeconds = %.2f, want ~10", s.ErrorSeconds)
	}
}

// The delayed pipe converts notification latency into an error-second
// gap: same failure, same workload, strictly more error-seconds with a
// slower pipe — and the arrival sequence is identical either way.
func TestWorkloadDelayedPipeCostsErrorSeconds(t *testing.T) {
	run := func(delay time.Duration) DomainStats {
		sched := sim.NewScheduler(9)
		farm := newFakeFarm()
		bus := event.NewBus(false)
		pipe := NewDelayedPipe(simClock{sched}, delay)
		p := Attach(Config{Seed: 5}, simClock{sched}, bus, farm, farm, nil, nil, pipe)
		p.Start()
		sched.RunFor(30 * time.Second)
		farm.dead["acme-fe-00"] = true
		bus.Publish(event.Event{Kind: event.NodeFailed, Node: "acme-fe-00", Time: sched.Now()})
		sched.RunFor(30 * time.Second)
		p.Stop()
		if !p.Drained() {
			// 30s >> any tested delay; the pipe must have flushed.
			panic("pipe not drained")
		}
		s := DomainStats{}
		for _, d := range p.Stats() {
			if d.Domain == "acme" {
				s = d
			}
		}
		return s
	}

	direct := run(0)
	slow := run(5 * time.Second)
	if slow.Requests != direct.Requests {
		t.Fatalf("arrival sequence changed with pipe delay: %d vs %d requests",
			slow.Requests, direct.Requests)
	}
	if slow.ErrorSeconds <= direct.ErrorSeconds {
		t.Fatalf("delayed pipe not costlier: direct %.2f error-s, 5s-delayed %.2f",
			direct.ErrorSeconds, slow.ErrorSeconds)
	}
	// ~5s of half-failing traffic on top of the direct baseline.
	gap := slow.ErrorSeconds - direct.ErrorSeconds
	if gap < 1.5 || gap > 4.0 {
		t.Fatalf("5s delay cost %.2f extra error-seconds, want ~2.5", gap)
	}
}

func TestWorkloadDeterministicAcrossRuns(t *testing.T) {
	run := func() []DomainStats {
		p, farm, sched, bus := testPlane(t, Config{Seed: 17}, nil)
		p.Start()
		sched.RunFor(20 * time.Second)
		farm.dead["globex-fe-01"] = true
		bus.Publish(event.Event{Kind: event.NodeFailed, Node: "globex-fe-01", Time: sched.Now()})
		sched.RunFor(20 * time.Second)
		p.Stop()
		return p.Stats()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stat lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged for %s:\n  %+v\n  %+v", a[i].Domain, a[i], b[i])
		}
	}
}

func TestWorkloadResetStats(t *testing.T) {
	p, _, sched, _ := testPlane(t, Config{Seed: 3}, nil)
	p.Start()
	sched.RunFor(20 * time.Second)
	p.Workload.ResetStats()
	s := statsFor(t, p, "acme")
	if s.Requests != 0 || s.Errors != 0 || s.ErrorSeconds != 0 {
		t.Fatalf("ResetStats left counters: %+v", s)
	}
	if p.Workload.ActiveSessions("acme") == 0 {
		t.Fatal("ResetStats should not kill in-flight sessions")
	}
	sched.RunFor(10 * time.Second)
	if statsFor(t, p, "acme").Requests == 0 {
		t.Fatal("workload stopped issuing requests after reset")
	}
	p.Stop()
}

// Millions of in-flight sessions must cost the same per tick as dozens:
// the cohort representation is counts, not objects. This is a smoke
// bound, not a benchmark — 2M sessions for a simulated minute in well
// under real-time.
func TestWorkloadScalesToMillionsOfSessions(t *testing.T) {
	cfg := Config{
		Seed:           21,
		SessionsPerSec: 40_000, // ~2.4M arrivals over 60s, mean 30s => ~1.2M in flight
		RequestsPerSec: 0.01,   // keep request math cheap; sessions are the point
	}
	p, _, sched, _ := testPlane(t, cfg, nil)
	start := time.Now()
	p.Start()
	sched.RunFor(60 * time.Second)
	p.Stop()
	elapsed := time.Since(start)

	var peak int64
	for _, s := range p.Stats() {
		if s.PeakSessions > peak {
			peak = s.PeakSessions
		}
	}
	if peak < 500_000 {
		t.Fatalf("peak sessions = %d, want >= 500k", peak)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("60 simulated seconds with %d peak sessions took %v", peak, elapsed)
	}
}

// ActiveSessions reports the domain's current in-flight session count.
func (w *Workload) ActiveSessions(domain string) int64 {
	for _, d := range w.domains {
		if d.name == domain {
			return d.active
		}
	}
	return 0
}
