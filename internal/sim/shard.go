// Sharded event kernel with conservative lookahead.
//
// Shards partitions a simulation into K independent Schedulers that
// advance in lockstep windows of width L (the lookahead): within a window
// [W, W+L) every shard executes only its own events, so shards never touch
// each other's state. Whatever crosses shards waits for the window
// barrier: there, with every shard parked, the hooks registered with
// OnBarrier move it into the destination shards (netsim does this with its
// delivery bundles). L is the shortest cross-shard latency, so everything
// moved at a barrier still lies in the future, and a hook that injects in
// a fixed order keeps the order in which the shards ran their windows from
// changing a run.
//
// Every window runs on the goroutine that called RunUntil or RunFor, one
// shard after another. K small heaps are cheaper to drive than one large
// one; a worker goroutine per shard, measured against this loop on a
// 2-vCPU host, did not pay for its CPU (DESIGN.md §13).
//
// A shard count of 1 bypasses the window machinery entirely: Shards(1) is
// the plain single-threaded Scheduler, bit for bit, and shard 0 always
// keeps the root RNG seed so the degenerate kernel replays existing
// recorded runs unchanged. See DESIGN.md §13.

package sim

import (
	"fmt"
	"time"
)

// Splitmix64 is the SplitMix64 mixing function: a bijective finalizer
// with good avalanche behavior, used to derive independent seed streams
// from a root seed.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardSeed derives the RNG seed for one shard from the root seed. Shard 0
// keeps the root seed itself — a one-shard kernel must be bit-identical to
// the plain Scheduler, recorded hashes included — while every other shard
// draws from an independent splitmix-derived stream, so no shard's
// randomness depends on how a single-threaded run would have interleaved
// the draws.
func ShardSeed(seed int64, shard int) int64 {
	if shard == 0 {
		return seed
	}
	return int64(uint64(seed) ^ Splitmix64(uint64(shard)))
}

// Shards is the sharded kernel. It starts no goroutine: every window and
// barrier runs on the RunUntil/RunFor caller's goroutine.
type Shards struct {
	shards    []*Scheduler
	lookahead time.Duration
	now       time.Duration // committed global time (last barrier)
	hooks     []func()      // barrier hooks (run quiesced)
	running   bool          // a window is executing
}

// NewShards builds a kernel of n shards with the given lookahead. Shard
// i's Scheduler is seeded with ShardSeed(seed, i). A single shard needs no
// lookahead (there are no windows); n > 1 requires lookahead > 0.
func NewShards(seed int64, n int, lookahead time.Duration) *Shards {
	if n < 1 {
		panic("sim: NewShards with no shards")
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: NewShards needs a positive lookahead for n > 1")
	}
	sh := &Shards{lookahead: lookahead}
	for i := 0; i < n; i++ {
		sh.shards = append(sh.shards, NewScheduler(ShardSeed(seed, i)))
	}
	return sh
}

// N returns the shard count.
func (sh *Shards) N() int { return len(sh.shards) }

// Shard returns shard i's Scheduler. During a window, shard i's events may
// use it freely (it is theirs); other shards must not touch it.
func (sh *Shards) Shard(i int) *Scheduler { return sh.shards[i] }

// Running reports whether a window is currently executing. Structures
// every shard reads may only be rebuilt while this is false: a rebuild
// mid-window would show the shards that already ran a different state
// than the ones still to run.
func (sh *Shards) Running() bool { return sh.running }

// OnBarrier registers fn to run at every window barrier, after all shards
// have parked. Hooks run with the kernel quiesced — the one place where
// state crosses shards (netsim flushes its delivery bundles here).
func (sh *Shards) OnBarrier(fn func()) { sh.hooks = append(sh.hooks, fn) }

// Now returns the committed global time: every shard has executed all its
// events strictly before this instant.
func (sh *Shards) Now() time.Duration {
	if len(sh.shards) == 1 {
		return sh.shards[0].Now()
	}
	return sh.now
}

// Fired reports the total events executed across all shards.
func (sh *Shards) Fired() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Fired()
	}
	return n
}

// Pending reports the total events queued across all shards.
func (sh *Shards) Pending() int {
	n := 0
	for _, s := range sh.shards {
		n += s.Pending()
	}
	return n
}

// earliest returns the earliest queued event time across shards.
func (sh *Shards) earliest() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, s := range sh.shards {
		if len(s.queue) == 0 {
			continue
		}
		if !ok || s.queue[0].at < min {
			min = s.queue[0].at
			ok = true
		}
	}
	return min, ok
}

// runSpan executes one window on every shard (exclusive of end, or
// inclusive for the boundary drain) and runs the barrier hooks.
func (sh *Shards) runSpan(end time.Duration, inclusive bool) {
	sh.running = true
	for _, s := range sh.shards {
		if inclusive {
			s.RunUntil(end)
		} else {
			s.runWindow(end)
		}
	}
	sh.running = false
	for _, fn := range sh.hooks {
		fn()
	}
	sh.now = end
}

// RunUntil executes events with timestamps <= deadline on every shard,
// windows and barriers included, then advances the committed clock to
// deadline — the sharded equivalent of Scheduler.RunUntil. Windows cover
// [now, deadline) exclusively; a final inclusive drain runs events at
// exactly the deadline (and any same-instant chains they schedule), so
// back-to-back RunUntil calls observe the same states a single-threaded
// kernel would.
func (sh *Shards) RunUntil(deadline time.Duration) {
	if len(sh.shards) == 1 {
		sh.shards[0].RunUntil(deadline)
		sh.now = sh.shards[0].Now()
		return
	}
	for sh.now < deadline {
		start := sh.now
		next, ok := sh.earliest()
		if !ok || next >= deadline {
			break // nothing strictly before the deadline; drain handles the rest
		}
		if next > start {
			start = next // jump idle gaps: no events, hence nothing to cross, in between
		}
		end := start + sh.lookahead
		if end > deadline {
			end = deadline
		}
		sh.runSpan(end, false)
	}
	sh.runSpan(deadline, true)
}

// RunFor advances the sharded simulation by d.
func (sh *Shards) RunFor(d time.Duration) { sh.RunUntil(sh.Now() + d) }

// Stop does nothing: the kernel holds no goroutine or other resource to
// release. It is kept so existing callers still compile.
func (sh *Shards) Stop() {}

// String describes the kernel state, for debugging.
func (sh *Shards) String() string {
	return fmt.Sprintf("sim.Shards{n=%d now=%v pending=%d fired=%d lookahead=%v}",
		len(sh.shards), sh.Now(), sh.Pending(), sh.Fired(), sh.lookahead)
}
