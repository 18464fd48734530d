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
	run := func(shards int, parallel bool) coldRun {
		t.Helper()
		f, err := ScaleBFarm(o, o.Adapters[0], shards, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if f.Shards != nil {
			f.Shards.SetParallel(parallel)
		}
		r, err := coldStart(f, o.Adapters[0]/(o.ZoneNodes*o.ZoneAdapters), o.Timeout)
		if err != nil {
			t.Fatalf("shards=%d parallel=%v: %v", shards, parallel, err)
		}
		return r
	}
	base := run(1, false)
	if base.fired == 0 || base.hash == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k, false)
		if got.fired != base.fired || got.hash != base.hash || got.stable != base.stable {
			t.Errorf("shards=%d diverged: fired=%d hash=%016x stable=%v, want fired=%d hash=%016x stable=%v",
				k, got.fired, got.hash, got.stable, base.fired, base.hash, base.stable)
		}
	}
	par := run(4, true)
	if par.fired != base.fired || par.hash != base.hash {
		t.Errorf("shards=4 parallel diverged: fired=%d hash=%016x, want fired=%d hash=%016x",
			par.fired, par.hash, base.fired, base.hash)
	}
}
