package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestShardsDegenerateMatchesScheduler checks that a one-shard kernel is
// bit-identical to the plain Scheduler: same event order, same clock, same
// RNG stream.
func TestShardsDegenerateMatchesScheduler(t *testing.T) {
	type trace struct {
		h     uint64
		draws []int64
	}
	workload := func(s *Scheduler, run func(time.Duration)) trace {
		var tr trace
		for i := 0; i < 50; i++ {
			i := i
			s.AfterFunc(time.Duration(i)*7*time.Millisecond, func() {
				tr.h = tr.h*31 + uint64(s.Now()) + uint64(i)
				tr.draws = append(tr.draws, s.Rand().Int63())
				if i%3 == 0 {
					s.Schedule(time.Millisecond, func() {
						tr.h = tr.h*31 + uint64(s.Now()) + 7777
					})
				}
			})
		}
		run(400 * time.Millisecond)
		return tr
	}
	plain := NewScheduler(7)
	a := workload(plain, plain.RunUntil)
	sh := NewShards(7, 1, 0)
	b := workload(sh.Shard(0), sh.RunUntil)
	if a.h != b.h {
		t.Fatalf("event order diverged: plain %d sharded %d", a.h, b.h)
	}
	if fmt.Sprint(a.draws) != fmt.Sprint(b.draws) {
		t.Fatalf("rng stream diverged:\nplain   %v\nsharded %v", a.draws, b.draws)
	}
	if plain.Fired() != sh.Fired() || plain.Now() != sh.Now() {
		t.Fatalf("fired/now diverged: plain (%d, %v) sharded (%d, %v)",
			plain.Fired(), plain.Now(), sh.Fired(), sh.Now())
	}
}

// TestShardSeedStreams checks the per-shard RNG derivation: shard 0 keeps
// the root seed, no two shards share a stream, and a shard's stream is a
// function of (root seed, shard id) alone — not of the shard count or of
// how a single-threaded run would have interleaved draws.
func TestShardSeedStreams(t *testing.T) {
	const root = int64(99)
	if ShardSeed(root, 0) != root {
		t.Fatalf("shard 0 must keep the root seed, got %d", ShardSeed(root, 0))
	}
	draw := func(seed int64, n int) []int64 {
		r := rand.New(rand.NewSource(seed))
		out := make([]int64, n)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	streams := make([]string, 9)
	for i := range streams {
		streams[i] = fmt.Sprint(draw(ShardSeed(root, i), 64))
	}
	for i := range streams {
		for j := i + 1; j < len(streams); j++ {
			if streams[i] == streams[j] {
				t.Fatalf("shards %d and %d share an RNG stream", i, j)
			}
		}
	}
	// Shard 1's draws must not be a windowed continuation of the root
	// stream (i.e. independent of single-shard draw ordering).
	rootLong := draw(root, 1024)
	s1 := draw(ShardSeed(root, 1), 8)
	for off := 0; off+8 <= len(rootLong); off++ {
		if fmt.Sprint(rootLong[off:off+8]) == fmt.Sprint(s1) {
			t.Fatalf("shard 1 stream is root stream at offset %d", off)
		}
	}
	// The same shard id draws the same stream under any shard count.
	a := NewShards(root, 2, time.Millisecond)
	b := NewShards(root, 8, time.Millisecond)
	for i := 0; i < 32; i++ {
		if x, y := a.Shard(1).Rand().Int63(), b.Shard(1).Rand().Int63(); x != y {
			t.Fatalf("shard 1 stream depends on shard count: %d vs %d at draw %d", x, y, i)
		}
	}
}

// TestShardsStartNoGoroutine: windows run on the caller's goroutine, so a
// multi-shard run leaves the goroutine count where it found it.
func TestShardsStartNoGoroutine(t *testing.T) {
	sh := NewShards(4, 4, time.Millisecond)
	for i := 0; i < 4; i++ {
		sh.Shard(i).AfterFunc(time.Duration(i+1)*time.Millisecond, func() {})
	}
	before := runtime.NumGoroutine()
	sh.RunFor(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after != before || sh.Fired() != 4 {
		t.Fatalf("goroutines %d -> %d, fired %d; want unchanged and 4", before, after, sh.Fired())
	}
}

// TestShardsBoundaryDrain checks RunUntil's inclusive semantics: events at
// exactly the deadline run, including same-instant chains they schedule —
// matching Scheduler.RunUntil so callers can poll between calls.
func TestShardsBoundaryDrain(t *testing.T) {
	sh := NewShards(3, 2, time.Millisecond)
	var got []string
	sh.Shard(1).AfterFunc(10*time.Millisecond, func() {
		got = append(got, "boundary")
		sh.Shard(1).Schedule(0, func() { got = append(got, "chain") })
	})
	sh.RunUntil(10 * time.Millisecond)
	if fmt.Sprint(got) != "[boundary chain]" {
		t.Fatalf("boundary drain ran %v", got)
	}
	if sh.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", sh.Now())
	}
	if sh.Fired() != 2 {
		t.Fatalf("fired %d, want 2", sh.Fired())
	}
}

// TestShardsBarrierHook checks that barrier hooks run at every barrier,
// quiesced, with every shard parked at the barrier instant, and may hand a
// shard work for a later instant.
func TestShardsBarrierHook(t *testing.T) {
	sh := NewShards(5, 2, time.Millisecond)
	barriers, fired := 0, 0
	sh.OnBarrier(func() {
		if sh.Running() {
			t.Fatal("hook ran while a window was executing")
		}
		if a, b := sh.Shard(0).Now(), sh.Shard(1).Now(); a != b {
			t.Fatalf("shards parked at %v and %v", a, b)
		}
		barriers++
		if barriers == 1 {
			sh.Shard(1).At(20*time.Millisecond, func() { fired++ })
		}
	})
	for i := 0; i < 5; i++ { // shard 0 at 0, 10, 20 ms; shard 1 at 5, 15 ms
		sh.Shard(i%2).Schedule(time.Duration(i)*5*time.Millisecond, func() {})
	}
	sh.RunUntil(30 * time.Millisecond)
	// One window at each of the five busy instants, then the drain to 30 ms.
	if barriers != 6 || fired != 1 {
		t.Fatalf("barriers %d, hook's event fired %d times; want 6 and 1", barriers, fired)
	}
}

// TestShardsIdleGapJump checks that RunUntil skips over long idle spans
// instead of spinning empty windows (and still runs the far event).
func TestShardsIdleGapJump(t *testing.T) {
	sh := NewShards(6, 4, time.Microsecond)
	ran := false
	sh.Shard(3).AfterFunc(5*time.Second, func() { ran = true })
	sh.RunUntil(10 * time.Second)
	if !ran {
		t.Fatal("far event did not run")
	}
	if sh.Now() != 10*time.Second {
		t.Fatalf("clock at %v", sh.Now())
	}
}
