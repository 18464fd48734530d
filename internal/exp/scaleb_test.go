package exp

import (
	"testing"
	"time"
)

// scaledDownB is a miniature E14b configuration: 8 zones × 10 nodes × 2
// adapters, small enough to sweep every shard count in a unit test.
func scaledDownB() ScaleBOptions {
	o := DefaultScaleB()
	o.Adapters = []int{160}
	o.ZoneNodes = 10
	o.Timeout = 2 * time.Minute
	return o
}

// TestScaleBCrossShardDeterminism is the tentpole contract at experiment
// level: one seed, one zoned config, shard counts 1/2/4/8 — identical
// events fired, identical whole-farm topology hash, identical
// stabilization instant. Shard count 4 additionally re-runs with parallel
// worker-goroutine windows, which must change nothing.
func TestScaleBCrossShardDeterminism(t *testing.T) {
	o := scaledDownB()
	run := func(shards int, parallel bool) ScaleBCell {
		t.Helper()
		f, err := ScaleBFarm(o, o.Adapters[0], shards, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if f.Shards != nil {
			f.Shards.SetParallel(parallel)
			defer f.Shards.Stop()
		}
		f.Start()
		zones := o.Adapters[0] / (o.ZoneNodes * o.ZoneAdapters)
		at, ok := f.RunUntilAllStable(zones, o.Timeout)
		if !ok {
			t.Fatalf("shards=%d parallel=%v never stabilized", shards, parallel)
		}
		return ScaleBCell{Shards: shards, Fired: f.Fired(), TopoHash: TopologyHashAll(f), StableSecs: at.Seconds()}
	}
	base := run(1, false)
	if base.Fired == 0 || base.TopoHash == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k, false)
		if got.Fired != base.Fired || got.TopoHash != base.TopoHash || got.StableSecs != base.StableSecs {
			t.Errorf("shards=%d diverged: fired=%d hash=%016x stable=%v, want fired=%d hash=%016x stable=%v",
				k, got.Fired, got.TopoHash, got.StableSecs, base.Fired, base.TopoHash, base.StableSecs)
		}
	}
	par := run(4, true)
	if par.Fired != base.Fired || par.TopoHash != base.TopoHash {
		t.Errorf("shards=4 parallel diverged: fired=%d hash=%016x, want fired=%d hash=%016x",
			par.Fired, par.TopoHash, base.Fired, base.TopoHash)
	}
}
