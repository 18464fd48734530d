package conformance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/span"
	"repro/internal/trace"
)

// Scraper turns many daemons' flight recorders into one farm-wide
// trace stream. Each incarnation's /trace feed is an independent
// source ("web-1#2"); records are clock-aligned by shifting every
// source's daemon-relative timestamps onto a common epoch (the
// earliest daemon start), then merged deterministically by
// span.Collector ordering. The harness also injects synthetic
// fault-injected records marking what it did to the farm, so stitched
// incident spans carry their cause milestone just as in the simulator.
type Scraper struct {
	mu       sync.Mutex
	sources  []*scrapeSource
	injected []injectedRecord
	warnings []string
}

type scrapeSource struct {
	d       *Daemon
	lastSeq uint64
	recs    []trace.Record
	gapped  bool
}

type injectedRecord struct {
	wallNS int64
	rec    trace.Record
}

// NewScraper returns an empty scraper; register incarnations with
// Track (the fabric calls it for every daemon it starts).
func NewScraper() *Scraper { return &Scraper{} }

// Track registers a daemon incarnation as a trace source.
func (s *Scraper) Track(d *Daemon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, &scrapeSource{d: d})
}

// Inject records a harness action into the merged stream, stamped at
// the current wall time.
func (s *Scraper) Inject(kind trace.Kind, node, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injected = append(s.injected, injectedRecord{
		wallNS: time.Now().UnixNano(),
		rec:    trace.Record{Kind: kind, Node: node, Detail: detail},
	})
}

// Poll fetches every live source's full retained window and appends
// the records not yet seen. Dead or unresponsive daemons are skipped —
// their last successful poll is what survives of them, which is why
// the harness polls synchronously right before injecting a kill.
func (s *Scraper) Poll() {
	s.mu.Lock()
	srcs := append([]*scrapeSource(nil), s.sources...)
	s.mu.Unlock()

	for _, src := range srcs {
		if !src.d.Alive() {
			continue
		}
		var dump trace.Dump
		if err := httpGetJSON(src.d.DebugURL()+"/trace", &dump, httpTimeout); err != nil {
			continue
		}
		s.mu.Lock()
		// Detect ring overwrite: if the oldest retained record is past
		// the last sequence we captured, records were lost between polls.
		if len(dump.Records) > 0 && src.lastSeq > 0 && !src.gapped &&
			dump.Records[0].Seq > src.lastSeq+1 {
			src.gapped = true
			s.warnings = append(s.warnings, fmt.Sprintf(
				"trace gap at %s: recorder dropped past seq %d before the next poll",
				src.d.Source(), src.lastSeq))
		}
		for _, r := range dump.Records {
			if r.Seq > src.lastSeq {
				src.recs = append(src.recs, r)
				src.lastSeq = r.Seq
			}
		}
		s.mu.Unlock()
	}
}

// Start launches a background poll loop; the returned function stops
// it (and does not poll again — call Poll for the final drain).
func (s *Scraper) Start(every time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Poll()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Merged returns the clock-aligned, deterministically ordered
// farm-wide stream. keep filters records (nil keeps everything, as the
// invariant engine takes it; pass span.DefaultFilter for stitching).
func (s *Scraper) Merged(keep func(trace.Record) bool) []trace.Record {
	if keep == nil {
		keep = func(trace.Record) bool { return true }
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	epoch := int64(0)
	for _, src := range s.sources {
		if start := src.d.Ready.StartUnixNS; epoch == 0 || start < epoch {
			epoch = start
		}
	}
	for _, inj := range s.injected {
		if epoch == 0 || inj.wallNS < epoch {
			epoch = inj.wallNS
		}
	}

	ordered := append([]*scrapeSource(nil), s.sources...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i].d, ordered[j].d
		if a.Ready.StartUnixNS != b.Ready.StartUnixNS {
			return a.Ready.StartUnixNS < b.Ready.StartUnixNS
		}
		return a.Source() < b.Source()
	})

	col := span.NewCollector(keep)
	for _, src := range ordered {
		shift := time.Duration(src.d.Ready.StartUnixNS - epoch)
		adj := make([]trace.Record, len(src.recs))
		for i, r := range src.recs {
			r.T += shift
			adj[i] = r
		}
		col.Add(src.d.Source(), adj)
	}
	if len(s.injected) > 0 {
		adj := make([]trace.Record, len(s.injected))
		for i, inj := range s.injected {
			r := inj.rec
			r.T = time.Duration(inj.wallNS - epoch)
			adj[i] = r
		}
		col.Add("harness", adj)
	}
	return col.Records()
}

// Warnings lists scrape anomalies (trace gaps).
func (s *Scraper) Warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.warnings...)
}

// Sources reports how many incarnation streams were tracked.
func (s *Scraper) Sources() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sources)
}
