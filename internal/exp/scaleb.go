package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
)

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

// QuickScaleB is the smoke variant: one small point at shard counts 1 and
// 4, still asserting the determinism contract.
func QuickScaleB() ScaleBOptions {
	o := DefaultScaleB()
	o.Adapters = []int{1000}
	o.ZoneNodes = 50
	o.Shards = []int{1, 4}
	o.Timeout = 5 * time.Minute
	return o
}

// ScaleBCell is one measured cold start at a (adapters, shards) cell.
type ScaleBCell struct {
	Shards       int
	Parallel     bool // worker goroutines (false = serial windows)
	StableSecs   float64
	WallSecs     float64
	Fired        uint64
	EventsPerSec float64
	TopoHash     uint64 // TopologyHashAll over every zone Central
}

// ScaleBFarm builds the zoned farm for one E14b cell. Exposed so the
// determinism test can run the identical configuration at several shard
// counts.
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

// ScaleBCellRun cold-starts one zoned farm and runs it until every zone's
// Central is stable.
func ScaleBCellRun(o ScaleBOptions, adapters, shards int, seed int64) (ScaleBCell, error) {
	f, err := ScaleBFarm(o, adapters, shards, seed)
	if err != nil {
		return ScaleBCell{}, err
	}
	zones := adapters / (o.ZoneNodes * o.ZoneAdapters)
	start := time.Now()
	f.Start()
	at, ok := f.RunUntilAllStable(zones, o.Timeout)
	wall := time.Since(start)
	if !ok {
		return ScaleBCell{}, fmt.Errorf("exp: e14b cell (adapters=%d shards=%d seed=%d) never stabilized", adapters, shards, seed)
	}
	fired := f.Fired()
	parallel := f.Shards != nil && f.Shards.Parallel()
	if f.Shards != nil {
		f.Shards.Stop()
	}
	return ScaleBCell{
		Shards:       shards,
		Parallel:     parallel,
		StableSecs:   at.Seconds(),
		WallSecs:     wall.Seconds(),
		Fired:        fired,
		EventsPerSec: float64(fired) / wall.Seconds(),
		TopoHash:     TopologyHashAll(f),
	}, nil
}

// ScaleB runs the E14b sweep and renders the table. Every cell at one
// adapter count must fire the same events and converge to the same
// topology hash as the baseline — a determinism violation is an error,
// not a table row. Throughput and speedup per cell are this host's and go
// to Table.Host.
func ScaleB(o ScaleBOptions) (*Table, error) {
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
		var base ScaleBCell
		for i, k := range o.Shards {
			cell, err := ScaleBCellRun(o, a, k, o.Seed)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = cell
			} else if cell.Fired != base.Fired || cell.TopoHash != base.TopoHash {
				return nil, fmt.Errorf("exp: e14b determinism violation at %d adapters: shards=%d fired=%d hash=%016x, baseline shards=%d fired=%d hash=%016x",
					a, k, cell.Fired, cell.TopoHash, base.Shards, base.Fired, base.TopoHash)
			}
			t.AddRow(
				fmt.Sprintf("%d", a),
				fmt.Sprintf("%d", zones),
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%.1f", cell.StableSecs),
				fmt.Sprintf("%d", cell.Fired),
				fmt.Sprintf("%016x", cell.TopoHash),
			)
			t.HostNote("%7d adapters, %d shards: par=%v  %.0f ev/s  speedup %.2f",
				a, k, cell.Parallel, cell.EventsPerSec, base.WallSecs/cell.WallSecs)
		}
	}
	t.Note("every shard count at one adapter count fired identical events and hashed to the identical topology (checked, not sampled)")
	t.HostNote("speedup is wall-clock vs the first shard count; par=false means serial windows, so ~1 is the honest")
	t.HostNote("single-core figure (host_cpus=%d gomaxprocs=%d)", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return t, nil
}
