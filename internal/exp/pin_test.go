package exp

import (
	"testing"
	"time"

	"repro/internal/farm"
)

// The two cold starts the repository's benchmark times (`coldstart_flat`,
// `coldstart_zoned` in bench/), pinned to the outcomes recorded at seed 99.
// The constants live here, beside the code that checks them: the beacon plane's
// optimizations (arrival lists, heard pages — DESIGN.md §9) are only
// legitimate while every one of these numbers stays put, and `go test
// ./...` is what says so.

// TestColdStartFlatPinned: 1 000 adapters on the legacy kernel — E14's
// second row.
func TestColdStartFlatPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second cold start")
	}
	const (
		wantFired  = 2_052_672
		wantHash   = 0x395671154a561587
		wantStable = 25_099_827_820 * time.Nanosecond
		wantMsgs   = 47_553 // messages sent, all adapters: 47.553 per adapter
	)
	f, err := ScaleFarm(DefaultScale(), 1000, 99)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	at, ok := f.RunUntilStable(time.Minute)
	if !ok {
		t.Fatal("never stabilized")
	}
	if got := f.Fired(); got != wantFired {
		t.Errorf("fired = %d, want %d", got, wantFired)
	}
	if got := TopologyHash(f); got != wantHash {
		t.Errorf("topology hash = %016x, want %016x", got, uint64(wantHash))
	}
	if at != wantStable {
		t.Errorf("stable at %v, want %v", at, wantStable)
	}
	if got := f.Metrics.Total().Messages; got != wantMsgs {
		t.Errorf("messages = %d (%.3f per adapter), want %d", got, float64(got)/1000, wantMsgs)
	}
}

// TestColdStartZonedPinned: four zones of 250 two-adapter nodes on the
// 2-shard kernel, parallel windows where the host has the cores.
func TestColdStartZonedPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second cold start")
	}
	const (
		wantFired  = 2_280_905
		wantStable = 28_879_659_504 * time.Nanosecond
	)
	o := DefaultScaleB()
	const adapters, shards = 2000, 2
	f, err := ScaleBFarm(o, adapters, shards, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shards.Stop()
	f.Start()
	at, ok := f.RunUntilAllStable(adapters/(o.ZoneNodes*o.ZoneAdapters), time.Minute)
	if !ok {
		t.Fatal("never stabilized")
	}
	if got := f.Fired(); got != wantFired {
		t.Errorf("fired = %d, want %d", got, wantFired)
	}
	if at != wantStable {
		t.Errorf("stable at %v, want %v", at, wantStable)
	}
}

// TestColdStartDomainPinned: the third farm shape — the chaos-regression
// farm, two domains of 2 FE + 3 BE behind three management nodes on the
// single kernel. Recorded before the uniform/domain and zoned builders
// were merged; the merged builder must leave every number where it was.
func TestColdStartDomainPinned(t *testing.T) {
	const (
		wantFired  = 2_609
		wantHash   = 0xb78d60af6be9af07
		wantStable = 8_667_600_566 * time.Nanosecond
		wantMsgs   = 971
	)
	f, err := farm.Build(chaosSpec(99, false))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	at, ok := f.RunUntilStable(2 * time.Minute)
	if !ok {
		t.Fatal("never stabilized")
	}
	if got := f.Fired(); got != wantFired {
		t.Errorf("fired = %d, want %d", got, wantFired)
	}
	if got := TopologyHash(f); got != wantHash {
		t.Errorf("topology hash = %016x, want %016x", got, uint64(wantHash))
	}
	if at != wantStable {
		t.Errorf("stable at %v, want %v", at, wantStable)
	}
	if got := f.Metrics.Total().Messages; got != wantMsgs {
		t.Errorf("messages = %d, want %d", got, wantMsgs)
	}
}

// BenchmarkColdStartFlat is the cell the pins above describe, for
// profiling (`go test -run '^$' -bench ColdStartFlat -cpuprofile ...`).
func BenchmarkColdStartFlat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := ScaleFarm(DefaultScale(), 1000, 99)
		if err != nil {
			b.Fatal(err)
		}
		f.Start()
		if _, ok := f.RunUntilStable(time.Minute); !ok {
			b.Fatal("never stabilized")
		}
	}
}
