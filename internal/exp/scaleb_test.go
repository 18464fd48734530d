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
// stabilization instant.
func TestScaleBCrossShardDeterminism(t *testing.T) {
	o := scaledDownB()
	run := func(shards int) coldRun {
		t.Helper()
		f, err := ScaleBFarm(o, o.Adapters[0], shards, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := coldStart(f, o.Adapters[0]/(o.ZoneNodes*o.ZoneAdapters), o.Timeout)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return r
	}
	base := run(1)
	if base.fired == 0 || base.hash == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k)
		if got.fired != base.fired || got.hash != base.hash || got.stable != base.stable {
			t.Errorf("shards=%d diverged: fired=%d hash=%016x stable=%v, want fired=%d hash=%016x stable=%v",
				k, got.fired, got.hash, got.stable, base.fired, base.hash, base.stable)
		}
	}
}
