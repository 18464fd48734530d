package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/transport"
)

// The scale sweeps time the kernel, so their trials run one after
// another: events/s is only an honest figure while a trial has the host.

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

// ScaleBOptions parameterizes the E14b sweep: cold-start a zoned farm at
// each adapter count on the sharded kernel, once per shard count, and
// measure wall-clock throughput plus the cross-shard determinism contract
// (same seed ⇒ identical events fired and topology hash at every shard
// count).
type ScaleBOptions struct {
	Seed int64
	// Adapters are the nominal adapter counts to sweep (ZoneNodes ×
	// ZoneAdapters per zone; gateway and switch-management adapters ride on
	// top). Zones per point = adapters / (ZoneNodes × ZoneAdapters).
	Adapters     []int
	ZoneNodes    int
	ZoneAdapters int
	// Shards lists the shard counts to run each point at. The first entry
	// is the speedup baseline (1 = the exact legacy kernel).
	Shards      []int
	BeaconPhase time.Duration
	StartSkew   time.Duration
	Timeout     time.Duration
}

// DefaultScaleB sweeps 10k/50k/100k adapters at 1/2/4/8 shards — the
// zoned shape keeps the event count linear in farm size, which is what
// makes 100k adapters reachable at all (a single farm-wide admin segment
// would be quadratic in deliveries).
func DefaultScaleB() ScaleBOptions {
	return ScaleBOptions{
		Seed:         99,
		Adapters:     []int{10000, 50000, 100000},
		ZoneNodes:    250,
		ZoneAdapters: 2,
		Shards:       []int{1, 2, 4, 8},
		BeaconPhase:  5 * time.Second,
		StartSkew:    2 * time.Second,
		Timeout:      15 * time.Minute,
	}
}

// ScaleFarm builds the uniform farm for one E14 trial.
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
	slices.Sort(leaders)
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

// ScaleBFarm builds the zoned farm for one E14b cell.
func ScaleBFarm(o ScaleBOptions, adapters, shards int, seed int64) (*farm.Farm, error) {
	cfg := core.DefaultConfig()
	cfg.BeaconPhase = o.BeaconPhase
	return farm.Build(farm.Spec{
		Seed:         seed,
		Zones:        adapters / (o.ZoneNodes * o.ZoneAdapters),
		ZoneNodes:    o.ZoneNodes,
		ZoneAdapters: o.ZoneAdapters,
		Shards:       shards,
		StartSkew:    o.StartSkew,
		Core:         cfg,
	})
}

// coldRun is one measured cold start.
type coldRun struct {
	stable   time.Duration // simulated time to stability
	wall     time.Duration // real time for the run
	fired    uint64        // events executed
	hash     uint64        // the topology hash
	msgs     uint64        // messages sent, every plane
	parallel bool          // windows ran on worker goroutines
}

func (r coldRun) evps() float64 { return float64(r.fired) / r.wall.Seconds() }

// coldStart runs a built farm until its zones' Centrals are all stable
// (the active one's when zones is 0; the hash is then TopologyHash, not
// TopologyHashAll) and stops the sharded kernel's workers.
func coldStart(f *farm.Farm, zones int, timeout time.Duration) (coldRun, error) {
	start := time.Now()
	f.Start()
	var at time.Duration
	var ok bool
	if zones == 0 {
		at, ok = f.RunUntilStable(timeout)
	} else {
		at, ok = f.RunUntilAllStable(zones, timeout)
	}
	hash := TopologyHash
	if zones > 0 {
		hash = TopologyHashAll
	}
	r := coldRun{stable: at, wall: time.Since(start), fired: f.Fired(), hash: hash(f),
		msgs: f.Metrics.Total().Messages, parallel: f.Shards != nil && f.Shards.Parallel()}
	if f.Shards != nil {
		f.Shards.Stop()
	}
	if !ok {
		return r, fmt.Errorf("exp: cold start (seed %d) never stabilized", f.Spec.Seed)
	}
	return r, nil
}

// scalePoint aggregates the trials at one adapter count.
type scalePoint struct {
	adapters int
	trials   []coldRun
	// allocsPerEvent and bytesPerEvent are process-wide ReadMemStats
	// deltas across the whole batch divided by total events fired.
	allocsPerEvent, bytesPerEvent float64
}

// scaleTrialRun cold-starts one E14 farm and measures it to stability.
func scaleTrialRun(o ScaleOptions, adapters int, seed int64) (coldRun, error) {
	f, err := ScaleFarm(o, adapters, seed)
	if err != nil {
		return coldRun{}, err
	}
	return coldStart(f, 0, o.Timeout)
}

// scaleSweep measures every (adapter count, trial) cell and returns the
// aggregated points. Each size runs under the profiler label
// adapters=<count>, so a CPU profile of the sweep (gsbench scale
// -cpuprofile) narrows to one size with pprof's
// -tagfocus='adapters=^4000$' (anchored, or pprof reads 4000 as a range).
func scaleSweep(o ScaleOptions) ([]scalePoint, error) {
	var points []scalePoint
	for _, a := range o.Adapters {
		pt := scalePoint{adapters: a, trials: make([]coldRun, o.Trials)}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var fired uint64
		var err error
		pprof.Do(context.Background(), pprof.Labels("adapters", strconv.Itoa(a)), func(context.Context) {
			for i := range pt.trials {
				if pt.trials[i], err = scaleTrialRun(o, a, o.Seed+int64(i)*7919); err != nil {
					return
				}
				fired += pt.trials[i].fired
			}
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		pt.allocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
		pt.bytesPerEvent = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fired)
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

// scaleTable runs the E14 sweep and renders the table: simulated time,
// events and topology hash per size. Kernel throughput and allocation
// rates are this host's and go to Table.Host.
func scaleTable(o ScaleOptions) (*Table, error) {
	points, err := scaleSweep(o)
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
		for _, tr := range pt.trials {
			stable = append(stable, tr.stable.Seconds())
			evps = append(evps, tr.evps())
		}
		first := pt.trials[0]
		t.addRow(fmt.Sprint(pt.adapters), fmt.Sprint(pt.adapters/o.AdaptersPerNode), fmt.Sprintf("%.1f", medianFloat(stable)),
			fmt.Sprint(first.fired), fmt.Sprintf("%016x", first.hash))
		t.hostNote("%7d adapters: median %.0f ev/s  %.2f allocs/ev  %.0f B/ev  %.1f msgs/adapter",
			pt.adapters, medianFloat(evps), pt.allocsPerEvent, pt.bytesPerEvent, float64(first.msgs)/float64(pt.adapters))
	}
	t.note("stable(s) is simulated time (= Tb+Ts+Tgsc+δ, size-invariant per the paper), the median over trials;")
	t.note("events and topo_hash are the first trial's. Kernel throughput (ev/s) and allocation rates are printed")
	t.note("by gsbench after the table and tracked by bench/ (coldstart_flat is the 1000-adapter row)")
	return t, nil
}

// scaleB runs the E14b sweep and renders the table. Every cell at one
// adapter count must fire the same events and converge to the same
// topology hash as the baseline — a determinism violation is an error,
// not a table row. Throughput and speedup per cell are this host's and go
// to Table.Host.
func scaleB(o ScaleBOptions) (*Table, error) {
	t := &Table{
		ID: "E14b/scaleb",
		Title: fmt.Sprintf("zoned sharded cold-start sweep (Tb=%ds, skew=%v)",
			int(o.BeaconPhase.Seconds()), o.StartSkew),
		Columns: []string{"adapters", "zones", "shards", "stable(s)", "events", "topo_hash"},
	}
	for _, a := range o.Adapters {
		zones := a / (o.ZoneNodes * o.ZoneAdapters)
		if zones <= 0 {
			return nil, fmt.Errorf("exp: e14b point %d adapters yields no zones (ZoneNodes=%d ZoneAdapters=%d)", a, o.ZoneNodes, o.ZoneAdapters)
		}
		var base coldRun
		for i, k := range o.Shards {
			f, err := ScaleBFarm(o, a, k, o.Seed)
			if err != nil {
				return nil, err
			}
			cell, err := coldStart(f, zones, o.Timeout)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = cell
			} else if cell.fired != base.fired || cell.hash != base.hash {
				return nil, fmt.Errorf("exp: e14b determinism violation at %d adapters: shards=%d fired=%d hash=%016x, baseline shards=%d fired=%d hash=%016x",
					a, k, cell.fired, cell.hash, o.Shards[0], base.fired, base.hash)
			}
			t.addRow(fmt.Sprint(a), fmt.Sprint(zones), fmt.Sprint(k), fmt.Sprintf("%.1f", cell.stable.Seconds()),
				fmt.Sprint(cell.fired), fmt.Sprintf("%016x", cell.hash))
			t.hostNote("%7d adapters, %d shards: par=%v  %.0f ev/s  speedup %.2f",
				a, k, cell.parallel, cell.evps(), base.wall.Seconds()/cell.wall.Seconds())
		}
	}
	t.note("every shard count at one adapter count fired identical events and hashed to the identical topology (checked, not sampled)")
	t.hostNote("speedup is wall-clock vs the first shard count; par=false means serial windows, so ~1 is the honest")
	t.hostNote("single-core figure (host_cpus=%d gomaxprocs=%d)", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return t, nil
}
