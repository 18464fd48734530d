package serve

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// DomainStats is one domain's accumulated serving outcome.
type DomainStats struct {
	Domain string `json:"domain"`
	// Requests is the number of requests issued.
	Requests uint64 `json:"requests"`
	// Errors = Misroutes + Unrouted: requests users saw fail.
	Errors uint64 `json:"errors"`
	// Misroutes are requests sent to a backend the ground-truth fabric
	// says cannot serve the domain (dead, moved away, or unplugged).
	Misroutes uint64 `json:"misroutes"`
	// Unrouted are requests issued while the balancer had no backend in
	// rotation for the domain.
	Unrouted uint64 `json:"unrouted"`
	// ErrorSeconds integrates the failing traffic fraction over time:
	// a tick where half the requests fail adds half the tick. It is the
	// user-visible cost of stale routing — the E17 optimization target.
	ErrorSeconds float64 `json:"error_seconds"`
	// PeakSessions is the largest in-flight session count observed.
	PeakSessions int64 `json:"peak_sessions"`
}

// domainLoad is one domain's live workload state: counted session
// cohorts in an expiry ring, plus the arrival generator.
type domainLoad struct {
	name  string
	arr   *Arrivals
	stats DomainStats

	nextBurst       time.Duration // absolute time of the next arrival burst
	pendingSessions int           // size of the burst arriving at nextBurst
	pendingDur      time.Duration // duration of that burst's sessions
	active          int64         // in-flight sessions (a count, not objects)
	expiry          []int64       // ring: sessions ending at tick (index)
	tick            int64
	carry           float64 // fractional request remainder across ticks
	// wasBad remembers that the previous served tick had errors, so the
	// first clean tick after an incident leaves a KServeClean record —
	// the span stitcher's "first clean client request" milestone.
	wasBad bool
}

// Workload drives the simulated client population. Each Tick it expires
// due cohorts, admits newly-arrived ones, asks the balancer to split the
// tick's request batch, and resolves every share against ground truth.
// Cost per tick is O(domains × backends), independent of the session
// count — which is how a laptop sweeps millions of in-flight sessions.
type Workload struct {
	cfg    Config
	clock  transport.Clock
	bal    *Balancer
	oracle Oracle
	reg    *metrics.Registry
	tracer *trace.Recorder

	domains []*domainLoad
	ringLen int64
	running bool
	timer   transport.Timer
}

// NewWorkload builds the workload over the balancer's domains. reg and
// tracer may be nil.
func NewWorkload(cfg Config, clock transport.Clock, bal *Balancer, oracle Oracle,
	reg *metrics.Registry, tracer *trace.Recorder) *Workload {
	cfg = cfg.withDefaults()
	// The duration sampler is bounded at TailRatio × the minimum, so the
	// ring only needs to hold the longest possible session.
	maxSession := time.Duration(cfg.MeanSession.Seconds() * cfg.TailRatio /
		boundedParetoMean(cfg.SessionAlpha, 1, cfg.TailRatio) * float64(time.Second))
	ringLen := int64(maxSession/cfg.Tick) + 2
	w := &Workload{
		cfg: cfg, clock: clock, bal: bal, oracle: oracle,
		reg: reg, tracer: tracer, ringLen: ringLen,
	}
	for i, dom := range bal.domains {
		w.domains = append(w.domains, &domainLoad{
			name:   dom,
			arr:    NewArrivals(cfg.Seed+int64(i)*1_000_003, cfg),
			stats:  DomainStats{Domain: dom},
			expiry: make([]int64, ringLen),
		})
	}
	return w
}

// Start schedules the first tick. Idempotent.
func (w *Workload) Start() {
	if w.running {
		return
	}
	w.running = true
	now := w.clock.Now()
	for _, d := range w.domains {
		gap, sessions, dur := d.arr.Next()
		d.nextBurst = now + gap
		d.pendingSessions, d.pendingDur = sessions, dur
	}
	w.timer = w.clock.AfterFunc(w.cfg.Tick, w.tick)
}

// Stop halts ticking. Accumulated stats remain readable.
func (w *Workload) Stop() {
	if !w.running {
		return
	}
	w.running = false
	if w.timer != nil {
		w.timer.Stop()
	}
}

func (w *Workload) tick() {
	if !w.running {
		return
	}
	now := w.clock.Now()
	tickSecs := w.cfg.Tick.Seconds()
	for _, d := range w.domains {
		// Expire cohorts due this tick.
		d.tick++
		slot := d.tick % w.ringLen
		d.active -= d.expiry[slot]
		d.expiry[slot] = 0

		// Admit every burst that has arrived by now.
		for d.nextBurst <= now {
			d.active += int64(d.pendingSessions)
			durTicks := int64(d.pendingDur / w.cfg.Tick)
			if durTicks < 1 {
				durTicks = 1
			}
			if durTicks > w.ringLen-1 {
				durTicks = w.ringLen - 1
			}
			d.expiry[(d.tick+durTicks)%w.ringLen] += int64(d.pendingSessions)
			gap, sessions, dur := d.arr.Next()
			d.nextBurst += gap
			d.pendingSessions, d.pendingDur = sessions, dur
		}
		if d.active > d.stats.PeakSessions {
			d.stats.PeakSessions = d.active
		}

		// Route the tick's request batch and resolve it against ground
		// truth.
		r := float64(d.active)*w.cfg.RequestsPerSec*tickSecs + d.carry
		n := int64(r)
		d.carry = r - float64(n)
		if n <= 0 {
			continue
		}
		var bad int64
		shares := w.bal.Assign(d.name, n)
		if len(shares) == 0 {
			bad = n
			d.stats.Unrouted += uint64(n)
			w.trace(trace.KServeMisroute, "", uint32(clampCount(n)), d.name+" unrouted")
		} else {
			for _, s := range shares {
				if !w.oracle.Serves(s.Node, d.name) {
					bad += s.Requests
					d.stats.Misroutes += uint64(s.Requests)
					w.trace(trace.KServeMisroute, s.Node, uint32(clampCount(s.Requests)), d.name)
				}
			}
		}
		d.stats.Requests += uint64(n)
		d.stats.Errors += uint64(bad)
		switch {
		case bad > 0:
			d.stats.ErrorSeconds += tickSecs * float64(bad) / float64(n)
			d.wasBad = true
		case d.wasBad:
			d.wasBad = false
			w.trace(trace.KServeClean, "", uint32(clampCount(n)), d.name)
		}
		if w.reg != nil {
			w.reg.Add("serve_requests_total", uint64(n))
			if bad > 0 {
				w.reg.Add("serve_errors_total", uint64(bad))
			}
		}
	}
	w.timer = w.clock.AfterFunc(w.cfg.Tick, w.tick)
}

func clampCount(n int64) int64 {
	const max = int64(^uint32(0))
	if n > max {
		return max
	}
	return n
}

func (w *Workload) trace(kind trace.Kind, node string, count uint32, detail string) {
	if w.tracer == nil {
		return
	}
	w.tracer.Record(trace.Record{
		T: w.clock.Now(), Kind: kind, Node: node, Count: count, Detail: detail,
	})
}

// Stats snapshots every domain's accumulated statistics, in the
// balancer's domain order.
func (w *Workload) Stats() []DomainStats {
	out := make([]DomainStats, 0, len(w.domains))
	for _, d := range w.domains {
		out = append(out, d.stats)
	}
	return out
}

// ResetStats zeroes the accumulated statistics (sessions in flight stay
// in flight) — called after warm-up so measurements start clean.
func (w *Workload) ResetStats() {
	for _, d := range w.domains {
		d.stats = DomainStats{Domain: d.name, PeakSessions: d.active}
	}
}
