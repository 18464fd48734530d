package conformance

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/span"
	"repro/internal/trace"
)

// The real-daemon world's trace turns many daemons' flight recorders
// into one farm-wide stream. Each incarnation's /trace feed is an
// independent source ("web-1#2"); records are clock-aligned by shifting
// every source's daemon-relative timestamps onto the farm clock (Now),
// then merged deterministically by span.Collector ordering. The harness
// also injects synthetic fault-injected records marking what it did to
// the farm, so stitched incident spans carry their cause milestone just
// as in the simulator.

// inject records a harness action into the merged stream, stamped on the
// farm clock.
func (f *Fabric) inject(node, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.injected = append(f.injected, trace.Record{T: f.Now(), Kind: trace.KFaultInjected, Node: node, Detail: detail})
}

// poll fetches every live incarnation's full retained window and appends
// the records not yet seen. The fabric polls when records are read,
// right before a kill, and at teardown: dead or unresponsive daemons are
// skipped, so their last successful poll is what survives of them. A
// suite's whole farm trace fits many times over in one daemon's ring
// (-trace-cap 16384), and a ring that wrapped between polls still shows
// as a gap warning.
func (f *Fabric) poll() {
	f.mu.Lock()
	srcs := slices.Clone(f.sources)
	f.mu.Unlock()

	for _, d := range srcs {
		if !d.Alive() {
			continue
		}
		var dump trace.Dump
		if err := httpGet(d.DebugURL()+"/trace", &dump, httpTimeout); err != nil {
			continue
		}
		f.mu.Lock()
		// Detect ring overwrite: if the oldest retained record is past
		// the last sequence we captured, records were lost between polls.
		if len(dump.Records) > 0 && d.lastSeq > 0 && !d.gapped &&
			dump.Records[0].Seq > d.lastSeq+1 {
			d.gapped = true
			f.warnings = append(f.warnings, fmt.Sprintf(
				"trace gap at %s: recorder dropped past seq %d before the next poll",
				d.Source(), d.lastSeq))
		}
		for _, r := range dump.Records {
			if r.Seq > d.lastSeq {
				d.recs = append(d.recs, r)
				d.lastSeq = r.Seq
			}
		}
		f.mu.Unlock()
	}
}

// Records implements world: it polls, then merges every incarnation's
// stream and the injected records into one farm-wide chronology.
func (f *Fabric) Records() []trace.Record {
	f.poll()
	f.mu.Lock()
	defer f.mu.Unlock()
	srcs := slices.Clone(f.sources)
	sort.SliceStable(srcs, func(i, j int) bool {
		a, b := srcs[i], srcs[j]
		if a.Ready.StartUnixNS != b.Ready.StartUnixNS {
			return a.Ready.StartUnixNS < b.Ready.StartUnixNS
		}
		return a.Source() < b.Source()
	})

	col := span.NewCollector(func(trace.Record) bool { return true })
	for _, d := range srcs {
		shift := time.Duration(d.Ready.StartUnixNS - f.start.UnixNano())
		adj := make([]trace.Record, len(d.recs))
		for i, r := range d.recs {
			r.T += shift
			adj[i] = r
		}
		col.Add(d.Source(), adj)
	}
	col.Add("harness", f.injected)
	return col.Records()
}
