package exp

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
)

// scaleTestOptions shrinks the sweep to something a unit test can afford.
func scaleTestOptions() ScaleOptions {
	o := DefaultScale()
	o.Adapters = []int{60}
	o.Trials = 1
	o.Timeout = 5 * time.Minute
	return o
}

// TestScaleDeterminism runs identical configurations twice and demands
// bit-identical outcomes: same event count and same discovered topology.
// This is the standing guard that the kernel and message-plane
// optimizations never traded reproducibility for speed. Besides a toy
// size it covers the smallest real E14 sweep point (500 adapters); the
// larger points run the same code on more of the same nodes.
func TestScaleDeterminism(t *testing.T) {
	o := scaleTestOptions()
	sizes := []int{60, 500}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, adapters := range sizes {
		a, err := scaleTrialRun(o, adapters, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scaleTrialRun(o, adapters, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.fired != b.fired {
			t.Errorf("adapters=%d: same seed, different event counts: %d vs %d", adapters, a.fired, b.fired)
		}
		if a.stable != b.stable {
			t.Errorf("adapters=%d: same seed, different stabilization times: %v vs %v", adapters, a.stable, b.stable)
		}
		if a.hash != b.hash {
			t.Errorf("adapters=%d: same seed, different topologies: %#x vs %#x", adapters, a.hash, b.hash)
		}
		if a.hash == 0 {
			t.Errorf("adapters=%d: topology hash is zero: Central view missing or empty", adapters)
		}
	}
}

// TestScaleSweep smoke-tests the full sweep machinery (aggregation, alloc
// accounting, table rendering) at a toy size.
func TestScaleSweep(t *testing.T) {
	o := scaleTestOptions()
	o.Trials = 2
	tab, err := scaleTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	pts, err := scaleSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if pt.adapters != 60 || len(pt.trials) != 2 {
		t.Fatalf("point = %+v, want 60 adapters x 2 trials", pt)
	}
	for _, tr := range pt.trials {
		if tr.fired == 0 || tr.evps() <= 0 {
			t.Errorf("trial %+v: no events measured", tr)
		}
	}
	if pt.allocsPerEvent < 0 || pt.bytesPerEvent <= 0 {
		t.Errorf("alloc accounting broken: %+v", pt)
	}
}

// TestSwitchKillRestoreDeterminism runs generated fault schedules full of
// switch power-offs and power-ons several times each in one process and
// demands the same event count and topology every time. A kill that takes
// the Central host's segment makes a journaled standby activate and
// re-confirm its restored groups; when it walked them in Go's map order,
// the jitter draws of those unicasts — and with them the fired count —
// differed between two runs of the same seed (these three seeds did, on
// most attempts).
func TestSwitchKillRestoreDeterminism(t *testing.T) {
	run := func(seed int64) (fired, hash uint64) {
		f, err := farm.Build(chaosSpec(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
			t.Fatal("farm never stabilized")
		}
		sched := check.Generate(seed, f.CheckTopology(), check.GenOpts{Rounds: 60})
		kills := 0
		for _, op := range sched.Ops {
			if op.Kind == check.OpKillSwitch {
				kills++
			}
		}
		if kills < 5 {
			t.Fatalf("seed %d: only %d switch kills in the schedule", seed, kills)
		}
		sched.Run(f)
		return f.Fired(), TopologyHash(f)
	}
	for _, seed := range []int64{9, 14, 21} {
		firedA, hashA := run(seed)
		if hashA == 0 {
			t.Fatalf("seed %d: topology hash is zero: Central view missing or empty", seed)
		}
		for i := 0; i < 3; i++ {
			if fired, hash := run(seed); fired != firedA || hash != hashA {
				t.Fatalf("seed %d run %d: fired %d hash %#x, first run fired %d hash %#x",
					seed, i+2, fired, hash, firedA, hashA)
			}
		}
	}
}
