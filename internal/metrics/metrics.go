// Package metrics collects the measurements the paper's evaluation needs
// — message and byte counts per protocol plane and per segment, latency
// samples with quantiles — plus a general registry of named counters,
// gauges and histograms fed by the protocol flight recorder
// (internal/trace). A Registry taps directly into netsim traffic under
// simulation and into trace records on real networks; gsd serves it as
// Prometheus text over HTTP.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/ordered"
	"repro/internal/transport"
)

// Plane names traffic classes by destination port.
func Plane(port uint16) string {
	switch port {
	case transport.PortBeacon:
		return "beacon"
	case transport.PortMember:
		return "membership"
	case transport.PortHeartbeat:
		return "heartbeat"
	case transport.PortReport:
		return "report"
	case transport.PortJournal:
		return "journal"
	case transport.PortSNMP:
		return "snmp"
	default:
		return "other"
	}
}

// Counter accumulates message and byte totals.
type Counter struct {
	Messages uint64
	Bytes    uint64
	Dropped  uint64
}

func (c *Counter) add(bytes, dropped int) {
	c.Messages++
	c.Bytes += uint64(bytes)
	c.Dropped += uint64(dropped)
}

// Registry aggregates traffic counters and named instruments. It is safe
// for concurrent use: the simulator drives it from one goroutine, but
// gsd observes from the UDP event loop while HTTP debug handlers read
// summaries concurrently.
type Registry struct {
	mu        sync.Mutex
	byPlane   map[string]*Counter
	bySegment map[string]*Counter
	total     Counter
	since     time.Duration

	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Latencies
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byPlane:   make(map[string]*Counter),
		bySegment: make(map[string]*Counter),
		counters:  make(map[string]uint64),
		gauges:    make(map[string]float64),
		hists:     make(map[string]*Latencies),
	}
}

// Attach installs the registry as net's traffic tap.
func (r *Registry) Attach(net *netsim.Network) {
	net.Tap(r.Observe)
}

// Observe records one transmission trace.
func (r *Registry) Observe(tr netsim.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total.add(tr.Bytes, tr.Dropped)
	p := Plane(tr.Dst.Port)
	c := r.byPlane[p]
	if c == nil {
		c = &Counter{}
		r.byPlane[p] = c
	}
	c.add(tr.Bytes, tr.Dropped)
	s := r.bySegment[tr.Segment]
	if s == nil {
		s = &Counter{}
		r.bySegment[tr.Segment] = s
	}
	s.add(tr.Bytes, tr.Dropped)
}

// Reset zeroes all traffic counters and instruments and marks the window
// start.
func (r *Registry) Reset(now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byPlane = make(map[string]*Counter)
	r.bySegment = make(map[string]*Counter)
	r.total = Counter{}
	r.counters = make(map[string]uint64)
	r.gauges = make(map[string]float64)
	r.hists = make(map[string]*Latencies)
	r.since = now
}

// Total returns the all-traffic counter.
func (r *Registry) Total() Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// PlaneCounter returns the counter for a protocol plane (zero if unseen).
func (r *Registry) PlaneCounter(plane string) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.byPlane[plane]; c != nil {
		return *c
	}
	return Counter{}
}

// Rate converts a message count to messages/second over the window ending
// at now.
func (r *Registry) Rate(messages uint64, now time.Duration) float64 {
	r.mu.Lock()
	since := r.since
	r.mu.Unlock()
	w := now - since
	if w <= 0 {
		return 0
	}
	return float64(messages) / w.Seconds()
}

// Summary renders all planes in name order, for experiment output.
func (r *Registry) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, n := range ordered.Keys(r.byPlane) {
		c := r.byPlane[n]
		fmt.Fprintf(&b, "%-12s %8d msgs %10d bytes %6d dropped\n", n, c.Messages, c.Bytes, c.Dropped)
	}
	return b.String()
}

// --- named instruments ---

// Inc adds 1 to the named counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds n to the named counter, creating it at zero.
func (r *Registry) Add(name string, n uint64) {
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// CounterValue returns the named counter (0 if unseen).
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Set sets the named gauge.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// ObserveDuration adds one sample to the named histogram.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Latencies{}
		r.hists[name] = h
	}
	h.Add(d)
	r.mu.Unlock()
}

// HistogramStats summarizes one named histogram.
type HistogramStats struct {
	N                   int
	Mean, P50, P95, Max time.Duration
}

// Histogram returns the named histogram's summary (zero if unseen).
func (r *Registry) Histogram(name string) HistogramStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return HistogramStats{}
	}
	return HistogramStats{
		N: h.N(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P95: h.Quantile(0.95), Max: h.Max(),
	}
}

// WriteProm renders the registry in the Prometheus text exposition
// format: per-plane and per-segment traffic, named counters and gauges,
// and histogram summaries with quantile labels.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()

	fmt.Fprintf(w, "# TYPE gulfstream_plane_messages_total counter\n")
	for _, p := range ordered.Keys(r.byPlane) {
		c := r.byPlane[p]
		fmt.Fprintf(w, "gulfstream_plane_messages_total{plane=%q} %d\n", p, c.Messages)
		fmt.Fprintf(w, "gulfstream_plane_bytes_total{plane=%q} %d\n", p, c.Bytes)
		fmt.Fprintf(w, "gulfstream_plane_dropped_total{plane=%q} %d\n", p, c.Dropped)
	}
	for _, s := range ordered.Keys(r.bySegment) {
		fmt.Fprintf(w, "gulfstream_segment_messages_total{segment=%q} %d\n", s, r.bySegment[s].Messages)
	}
	for _, name := range ordered.Keys(r.counters) {
		fmt.Fprintf(w, "gulfstream_%s %d\n", name, r.counters[name])
	}
	for _, name := range ordered.Keys(r.gauges) {
		fmt.Fprintf(w, "gulfstream_%s %s\n", name, formatFloat(r.gauges[name]))
	}
	for _, name := range ordered.Keys(r.hists) {
		h := r.hists[name]
		var sum time.Duration
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "gulfstream_%s_seconds{quantile=\"%g\"} %s\n",
				name, q, formatFloat(h.Quantile(q).Seconds()))
		}
		for _, s := range h.samples {
			sum += s
		}
		fmt.Fprintf(w, "gulfstream_%s_seconds_sum %s\n", name, formatFloat(sum.Seconds()))
		fmt.Fprintf(w, "gulfstream_%s_seconds_count %d\n", name, h.N())
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Latencies collects duration samples and reports order statistics. It is
// not safe for concurrent use on its own; Registry guards the histograms
// it owns.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// N returns the sample count.
func (l *Latencies) N() int { return len(l.samples) }

func (l *Latencies) sortSamples() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Quantile returns the q-th (0..1) order statistic by the nearest-rank
// rule (index round(q*(n-1))), 0 with no samples. Plain truncation would
// bias small-sample quantiles low: with 3 samples, a truncated p95 picks
// the median.
func (l *Latencies) Quantile(q float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	idx := int(math.Round(q * float64(len(l.samples)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Mean returns the arithmetic mean, 0 with no samples.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Max returns the largest sample.
func (l *Latencies) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	return l.samples[len(l.samples)-1]
}
