package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/central"
	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	flatAdapters  = 1000 // 500 nodes × 2 adapters, two farm-wide segments
	zonedAdapters = 2000 // 4 zones × 250 nodes × 2 adapters (+ gateways)
	zoneNodes     = 250
	zonedShards   = 2
	stableTimeout = 10 * time.Minute
)

// coldstart is one farm cold start: Start, then run until every hosted
// Central has held a stable view for Tgsc.
type coldstart struct {
	f        *farm.Farm
	zones    int // 0 = the flat (uniform) shape
	adapters int
	cap      *capture
	events   uint64 // notifications published on the farm's buses
	stableAt time.Duration
}

func zonedOptions() exp.ScaleBOptions {
	o := exp.DefaultScaleB()
	o.ZoneNodes = zoneNodes
	return o
}

func setupFlat(seed int64, cap *capture) (instance, error) {
	f, err := exp.ScaleFarm(exp.DefaultScale(), flatAdapters, seed)
	if err != nil {
		return nil, err
	}
	return newColdstart(f, 0, cap), nil
}

func setupZoned(seed int64, cap *capture) (instance, error) {
	return setupZonedAt(seed, cap, zonedShards)
}

func setupZonedAt(seed int64, cap *capture, shards int) (instance, error) {
	o := zonedOptions()
	f, err := exp.ScaleBFarm(o, zonedAdapters, shards, seed)
	if err != nil {
		return nil, err
	}
	return newColdstart(f, zonedAdapters/(o.ZoneNodes*o.ZoneAdapters), cap), nil
}

func newColdstart(f *farm.Farm, zones int, cap *capture) *coldstart {
	cs := &coldstart{f: f, zones: zones, adapters: len(f.AdapterIPs()), cap: cap}
	if cap == nil {
		return cs
	}
	count := func(event.Event) { cs.events++ }
	if f.Shards == nil {
		// One goroutine: the flight recorder and a bus subscriber are safe,
		// and the capture tap forwards to the registry that owned the slot.
		cap.attachNet(f.Net, f.Metrics)
		f.Trace.Enable(true)
		f.Trace.AddSink(cap.sink)
		for _, b := range buses(f) {
			b.Subscribe(count)
		}
	} else {
		// Parallel windows: only the atomic tap and the barrier hook.
		cap.attachNet(f.Net, nil)
		f.Shards.OnBarrier(func() { cap.windows++ })
	}
	return cs
}

func buses(f *farm.Farm) []*event.Bus {
	if len(f.Buses) > 0 {
		return f.Buses
	}
	return []*event.Bus{f.Bus}
}

func (cs *coldstart) pending() int {
	if cs.f.Shards != nil {
		return cs.f.Shards.Pending()
	}
	return cs.f.Sched.Pending()
}

func (cs *coldstart) run(sl *spanLog) error {
	f := cs.f
	sl.do("farm.Start", f.Start)
	var ok bool
	id := sl.begin("farm.RunUntilStable")
	switch {
	case cs.cap != nil:
		// The farm's own loop, step for step, with the kernel's queue
		// depth sampled at each 250 ms boundary.
		cs.stableAt, ok = cs.steppedUntilStable()
	case cs.zones > 0:
		cs.stableAt, ok = f.RunUntilAllStable(cs.zones, stableTimeout)
	default:
		cs.stableAt, ok = f.RunUntilStable(stableTimeout)
	}
	sl.end(id, 1)
	if !ok {
		return fmt.Errorf("farm never stabilised")
	}
	return nil
}

func (cs *coldstart) steppedUntilStable() (time.Duration, bool) {
	f := cs.f
	want := cs.zones
	if want == 0 {
		want = 1
	}
	stable := func() (time.Duration, bool) {
		hosted := cs.hosted()
		if len(hosted) < want {
			return 0, false
		}
		var last time.Duration
		for _, c := range hosted {
			if !c.Stable() {
				return 0, false
			}
			if at := c.StableAt(); at > last {
				last = at
			}
		}
		return last, true
	}
	deadline := f.Now() + stableTimeout
	for f.Now() < deadline {
		if at, ok := stable(); ok {
			return at, true
		}
		f.RunFor(250 * time.Millisecond)
		if p := cs.pending(); p > cs.cap.pendingPeak {
			cs.cap.pendingPeak = p
		}
	}
	return stable()
}

// hosted lists the Centrals whose views make up the farm's topology:
// every zone's in a zoned farm, the authoritative one otherwise.
func (cs *coldstart) hosted() []*central.Central {
	if cs.zones > 0 {
		return cs.f.HostingCentrals()
	}
	if c := cs.f.ActiveCentral(); c != nil {
		return []*central.Central{c}
	}
	return nil
}

func (cs *coldstart) close() {
	if cs.f.Shards != nil {
		cs.f.Shards.Stop()
	}
}

func (cs *coldstart) check() outcome {
	f := cs.f
	out := outcome{
		ops:       float64(f.Fired()),
		attempted: cs.adapters,
		exact:     map[string]float64{"sim_stable_s": cs.stableAt.Seconds()},
		pins:      map[string]float64{"fired": float64(f.Fired())},
	}
	hash := exp.TopologyHash(f)
	if cs.zones > 0 {
		hash = exp.TopologyHashAll(f)
	}
	out.pins["topo_hash53"] = float64(hash >> 11)
	out.notes = append(out.notes, fmt.Sprintf("events fired %d, topology hash %016x", f.Fired(), hash))

	// Central's discovered groups must be exactly the fabric's segments.
	hosted := cs.hosted()
	missing, problems := compareGroups(f, hosted)
	out.failed = missing
	out.problems = append(out.problems, problems...)
	// A zone's configdb knows only its own zone, but the backbone AMG
	// spans all of them and reports to one zone's Central: Verify there
	// calls the other gateways unknown, and everywhere else calls the
	// zone's own gateway missing. Those are the shape's, not a fault.
	backbone := switchsim.SegmentName(farm.BackboneVLAN)
	for _, c := range hosted {
		for _, m := range c.Verify() {
			if seg, _ := f.SegmentOf(m.Adapter); cs.zones > 0 && seg == backbone {
				continue
			}
			out.problems = append(out.problems, fmt.Sprintf("configdb.Verify: %v", m))
		}
	}
	if cs.zones == 0 {
		out.exact["msgs_per_adapter"] = float64(f.Metrics.Total().Messages) / float64(cs.adapters)
	}
	if cs.cap != nil {
		out.counts = farmCounts(f, cs.cap, cs.events)
		if cs.zones > 0 {
			msgs := cs.cap.mcastMsgs.Load() + cs.cap.ucastMsgs.Load()
			out.exact["msgs_per_adapter"] = float64(msgs) / float64(cs.adapters)
		}
	}
	return out
}

// compareGroups checks the union of the Centrals' group views against
// the switch fabric: every daemon adapter must sit in a group whose
// member set is exactly its segment's adapter set. It returns how many
// adapters are missing or misplaced.
func compareGroups(f *farm.Farm, hosted []*central.Central) (int, []string) {
	bySegment := map[string][]transport.IP{}
	segOf := map[transport.IP]string{}
	for _, ip := range f.AdapterIPs() {
		seg, ok := f.SegmentOf(ip)
		if !ok {
			continue
		}
		segOf[ip] = seg
		bySegment[seg] = append(bySegment[seg], ip)
	}
	for _, ips := range bySegment {
		sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	}
	placed := map[transport.IP]bool{}
	var problems []string
	for _, c := range hosted {
		for leader, members := range c.Groups() {
			want := bySegment[segOf[leader]]
			if !equalIPs(members, want) {
				problems = append(problems, fmt.Sprintf("group %v has %d members, segment %s has %d",
					leader, len(members), segOf[leader], len(want)))
				continue
			}
			for _, ip := range members {
				placed[ip] = true
			}
		}
	}
	missing := len(segOf) - len(placed)
	if missing != 0 {
		problems = append(problems, fmt.Sprintf("%d of %d adapters missing from Central's view", missing, len(segOf)))
	}
	return missing, problems
}

func equalIPs(a, b []transport.IP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// farmCounts reads the per-layer counters of a traced farm rep.
func farmCounts(f *farm.Farm, c *capture, busEvents uint64) map[string]float64 {
	msgs := c.mcastMsgs.Load() + c.ucastMsgs.Load()
	k := func(kind trace.Kind) float64 { return float64(c.kinds[kind]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// MemStore keeps no snapshot counter; a journal compacts every
	// DefaultSnapEvery appends, so the count follows from its position.
	var journaled, snapshots float64
	for _, j := range f.Journals {
		journaled += float64(j.Seq())
		snapshots += float64(j.Seq() / journal.DefaultSnapEvery)
	}
	return map[string]float64{
		"netsim.msgs":                  float64(msgs),
		"netsim.bytes":                 float64(c.bytes.Load()),
		"netsim.fanout_mean":           ratio(float64(c.mcastDeliveries.Load()), float64(c.mcastMsgs.Load())),
		"netsim.dropped":               float64(c.dropped.Load()),
		"sim.events_fired":             float64(f.Fired()),
		"sim.pending_peak":             float64(c.pendingPeak),
		"sim.windows":                  float64(c.windows),
		"core.beacons_rx":              float64(c.beaconDeliveries.Load()),
		"core.view_commits":            k(trace.KViewCommit),
		"core.twophase_abort_ratio":    ratio(k(trace.KAbortRecv), k(trace.KPrepareRecv)),
		"detect.heartbeats":            float64(c.heartbeatMsgs.Load()),
		"detect.false_suspicion_ratio": ratio(k(trace.KFalseAccusation), k(trace.KSuspicionRaised)),
		"central.reports":              k(trace.KReportApplied),
		"central.notifications":        float64(busEvents),
		"central.resyncs_sent":         k(trace.KResyncSent),
		"trace.records":                float64(f.Trace.Total()),
		"journal.records":              journaled,
		"journal.snapshots":            snapshots,
	}
}
