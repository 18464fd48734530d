package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// shardNode is one logical process in the synthetic cross-shard workload:
// it ticks on its home shard, sends messages to a ring neighbor (direct
// schedule when the neighbor shares the shard, Post when it does not), and
// folds everything it sees into a running hash.
type shardNode struct {
	id    int
	shard int
	sched *Scheduler
	// ordered folds (time, payload) sensitive to arrival order; summed is
	// commutative, so it is comparable across shard counts even when two
	// messages land at the same instant with different tiebreak orders.
	ordered uint64
	summed  uint64
	recvd   int
}

func (n *shardNode) absorb(at time.Duration, payload uint64) {
	m := Splitmix64(uint64(at) ^ payload)
	n.ordered = n.ordered*0x100000001b3 + m
	n.summed += m
	n.recvd++
}

type shardMsg struct {
	node    *shardNode
	payload uint64
}

func runShardMsg(arg any) {
	m := arg.(*shardMsg)
	m.node.absorb(m.node.sched.Now(), m.payload)
}

// runSyntheticRing drives nodes in a ring over a Shards kernel: every node
// sends rounds messages to its neighbor with a pair-specific delay of at
// least one lookahead. It returns (fired, per-node ordered hash folded in
// node order, per-node commutative sum folded commutatively).
func runSyntheticRing(k, nodes, rounds int) (uint64, uint64, uint64) {
	const lookahead = time.Millisecond
	sh := NewShards(42, k, lookahead)
	ns := make([]*shardNode, nodes)
	for i := range ns {
		ns[i] = &shardNode{id: i, shard: i % k}
		ns[i].sched = sh.Shard(i % k)
	}
	for i := range ns {
		n := ns[i]
		dst := ns[(i+1)%nodes]
		// Pair-specific extra delay keeps arrival instants from colliding
		// for most pairs; collisions that remain are covered by the
		// commutative sum.
		extra := time.Duration(Splitmix64(uint64(n.id*1000003+dst.id))%1000) * time.Microsecond
		for r := 0; r < rounds; r++ {
			sendAt := time.Duration(r+1)*10*time.Millisecond + time.Duration(n.id)*time.Microsecond
			payload := uint64(n.id)<<32 | uint64(r)
			msg := &shardMsg{node: dst, payload: payload}
			n.sched.AfterFunc(sendAt-n.sched.Now(), func() {
				at := n.sched.Now() + lookahead + extra
				if dst.shard == n.shard {
					dst.sched.AfterCall(at-dst.sched.Now(), runShardMsg, msg)
				} else {
					sh.Post(n.shard, dst.shard, at, runShardMsg, msg)
				}
			})
		}
	}
	sh.Run()
	var ordered, summed uint64
	for _, n := range ns {
		ordered = ordered*0x100000001b3 + n.ordered
		summed ^= Splitmix64(n.summed ^ uint64(n.id) ^ uint64(n.recvd))
	}
	return sh.Fired(), ordered, summed
}

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

// TestShardsCrossShardDeterminism checks the two determinism contracts:
// the same shard count replays exactly (ordered hash), and different shard
// counts agree on event count and per-node message history (commutative
// hash).
func TestShardsCrossShardDeterminism(t *testing.T) {
	const nodes, rounds = 24, 8
	baseFired, _, baseSummed := runSyntheticRing(1, nodes, rounds)
	for _, k := range []int{2, 4, 8} {
		fired, ordered, summed := runSyntheticRing(k, nodes, rounds)
		if fired != baseFired || summed != baseSummed {
			t.Fatalf("k=%d diverged from k=1: fired %d vs %d, summed %x vs %x",
				k, fired, baseFired, summed, baseSummed)
		}
		fired2, ordered2, _ := runSyntheticRing(k, nodes, rounds)
		if fired2 != fired || ordered2 != ordered {
			t.Fatalf("k=%d replay diverged: fired %d vs %d, ordered %x vs %x",
				k, fired2, fired, ordered2, ordered)
		}
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

// TestShardsPostLookaheadPanics checks the conservative-lookahead guard: a
// cross-shard post inside the current window must panic, not reorder.
func TestShardsPostLookaheadPanics(t *testing.T) {
	sh := NewShards(1, 2, time.Millisecond)
	sh.Shard(0).AfterFunc(10*time.Millisecond, func() {
		// The window containing this event ends at or before now+lookahead;
		// posting for "now" is inside it.
		sh.Post(0, 1, sh.Shard(0).Now(), func(any) {}, nil)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	sh.RunFor(time.Second)
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

// TestShardsBarrierHook checks that barrier hooks run quiesced between
// windows and may post cross-shard work for future instants.
func TestShardsBarrierHook(t *testing.T) {
	sh := NewShards(5, 2, time.Millisecond)
	fired := 0
	posted := false
	sh.OnBarrier(func() {
		if sh.Running() {
			t.Fatal("hook ran while a window was executing")
		}
		if !posted {
			posted = true
			sh.Post(0, 1, 20*time.Millisecond, func(any) { fired++ }, nil)
		}
	})
	sh.Shard(0).Schedule(time.Millisecond, func() {}) // something to run
	sh.RunUntil(30 * time.Millisecond)
	if !posted || fired != 1 {
		t.Fatalf("hook post did not run: posted=%v fired=%d", posted, fired)
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
