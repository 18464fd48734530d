package exp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/transport"
)

// ScaleOptions parameterizes the E14 scale sweep: cold-start a uniform
// farm at each adapter count and measure how fast the event kernel pushes
// it to stability.
type ScaleOptions struct {
	Seed int64
	// Adapters are the total adapter counts to sweep; each uniform node
	// carries AdaptersPerNode adapters, so nodes = adapters/AdaptersPerNode.
	Adapters        []int
	AdaptersPerNode int
	Trials          int
	// BeaconPhase is Tb for every run (the sweep holds protocol timing
	// fixed so only farm size varies).
	BeaconPhase time.Duration
	StartSkew   time.Duration
	Timeout     time.Duration
}

// DefaultScale sweeps 500 to 4,000 adapters — the paper's testbed tops
// out at 165, so everything past the first point is extrapolation the
// simulator makes affordable.
func DefaultScale() ScaleOptions {
	return ScaleOptions{
		Seed:            99,
		Adapters:        []int{500, 1000, 2000, 4000},
		AdaptersPerNode: 2,
		Trials:          3,
		BeaconPhase:     5 * time.Second,
		StartSkew:       2 * time.Second,
		Timeout:         10 * time.Minute,
	}
}

// ScaleTrial is one measured cold start.
type ScaleTrial struct {
	StableSecs   float64 // simulated time to farm stability
	WallSecs     float64 // real time for the run
	Fired        uint64  // events executed
	EventsPerSec float64 // Fired / WallSecs
	TopoHash     uint64  // FNV-1a over Central's sorted view
}

// ScalePoint aggregates the trials at one adapter count.
type ScalePoint struct {
	Adapters int
	Nodes    int
	Trials   []ScaleTrial
	// AllocsPerEvent and BytesPerEvent are process-wide ReadMemStats
	// deltas across the whole batch divided by total events fired.
	AllocsPerEvent float64
	BytesPerEvent  float64
}

// ScaleFarm builds the uniform farm for one scale trial. Exposed so the
// determinism test can run the identical configuration twice.
func ScaleFarm(o ScaleOptions, adapters int, seed int64) (*farm.Farm, error) {
	cfg := core.DefaultConfig()
	cfg.BeaconPhase = o.BeaconPhase
	return farm.Build(farm.Spec{
		Seed:            seed,
		UniformNodes:    adapters / o.AdaptersPerNode,
		UniformAdapters: o.AdaptersPerNode,
		StartSkew:       o.StartSkew,
		Core:            cfg,
	})
}

// hashGroups folds one Central's discovered view — every group leader and
// its sorted members, zero-separated — into h.
func hashGroups(h hash.Hash64, c *central.Central) {
	groups := c.Groups()
	leaders := make([]transport.IP, 0, len(groups))
	for l := range groups {
		leaders = append(leaders, l)
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	var buf [4]byte
	put := func(ip transport.IP) {
		binary.BigEndian.PutUint32(buf[:], uint32(ip))
		h.Write(buf[:])
	}
	for _, l := range leaders {
		put(l)
		for _, m := range groups[l] {
			put(m)
		}
		buf = [4]byte{} // group separator
		h.Write(buf[:])
	}
}

// TopologyHash digests the active Central's discovered view so two runs
// can be compared for exact agreement without retaining either view.
func TopologyHash(f *farm.Farm) uint64 {
	c := f.ActiveCentral()
	if c == nil {
		return 0
	}
	h := fnv.New64a()
	hashGroups(h, c)
	return h.Sum64()
}

// TopologyHashAll digests every hosted Central's view in node build order
// — the whole-farm topology fingerprint of a zoned farm, where each zone
// discovers its own groups.
func TopologyHashAll(f *farm.Farm) uint64 {
	h := fnv.New64a()
	for _, c := range f.HostingCentrals() {
		hashGroups(h, c)
	}
	return h.Sum64()
}

// ScaleTrialRun cold-starts one farm and measures it to stability.
func ScaleTrialRun(o ScaleOptions, adapters int, seed int64) (ScaleTrial, error) {
	f, err := ScaleFarm(o, adapters, seed)
	if err != nil {
		return ScaleTrial{}, err
	}
	start := time.Now()
	f.Start()
	at, ok := f.RunUntilStable(o.Timeout)
	wall := time.Since(start)
	if !ok {
		return ScaleTrial{}, fmt.Errorf("exp: scale run (adapters=%d seed=%d) never stabilized", adapters, seed)
	}
	fired := f.Fired()
	return ScaleTrial{
		StableSecs:   at.Seconds(),
		WallSecs:     wall.Seconds(),
		Fired:        fired,
		EventsPerSec: float64(fired) / wall.Seconds(),
		TopoHash:     TopologyHash(f),
	}, nil
}

// ScaleSweep measures every (adapter count, trial) cell and returns the
// aggregated points. Trials run one after another: events/sec is only an
// honest throughput figure while a trial has the host to itself.
func ScaleSweep(o ScaleOptions) ([]ScalePoint, error) {
	points := make([]ScalePoint, 0, len(o.Adapters))
	for _, a := range o.Adapters {
		pt := ScalePoint{Adapters: a, Nodes: a / o.AdaptersPerNode, Trials: make([]ScaleTrial, o.Trials)}

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var fired uint64
		for i := range pt.Trials {
			tr, err := ScaleTrialRun(o, a, o.Seed+int64(i)*7919)
			if err != nil {
				return nil, err
			}
			pt.Trials[i] = tr
			fired += tr.Fired
		}
		runtime.ReadMemStats(&m1)
		pt.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
		pt.BytesPerEvent = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fired)
		points = append(points, pt)
	}
	return points, nil
}

// medianFloat returns the middle value (by sort) of a non-empty slice.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Scale runs the E14 sweep and renders the table: simulated time, events
// and topology hash per size. Kernel throughput and allocation rates are
// this host's and go to Table.Host.
func Scale(o ScaleOptions) (*Table, error) {
	points, err := ScaleSweep(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E14/scale",
		Title: fmt.Sprintf("cold-start scale sweep, %d trials per size (Tb=%ds, skew=%v)",
			o.Trials, int(o.BeaconPhase.Seconds()), o.StartSkew),
		Columns: []string{"adapters", "nodes", "stable(s)", "events", "topo_hash"},
	}
	for _, pt := range points {
		var stable, evps []float64
		for _, tr := range pt.Trials {
			stable = append(stable, tr.StableSecs)
			evps = append(evps, tr.EventsPerSec)
		}
		t.AddRow(
			fmt.Sprintf("%d", pt.Adapters),
			fmt.Sprintf("%d", pt.Nodes),
			fmt.Sprintf("%.1f", medianFloat(stable)),
			fmt.Sprintf("%d", pt.Trials[0].Fired),
			fmt.Sprintf("%016x", pt.Trials[0].TopoHash),
		)
		t.HostNote("%7d adapters: median %.0f ev/s  %.2f allocs/ev  %.0f B/ev",
			pt.Adapters, medianFloat(evps), pt.AllocsPerEvent, pt.BytesPerEvent)
	}
	t.Note("stable(s) is simulated time (= Tb+Ts+Tgsc+δ, size-invariant per the paper), the median over trials;")
	t.Note("events and topo_hash are the first trial's. Kernel throughput (ev/s) and allocation rates are printed")
	t.Note("by gsbench after the table and tracked by bench/ (coldstart_flat is the 1000-adapter row)")
	return t, nil
}
