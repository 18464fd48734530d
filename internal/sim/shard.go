// Sharded event kernel with conservative lookahead.
//
// Shards partitions a simulation into K independent Schedulers that
// advance in lockstep windows of width L (the lookahead): within a window
// [W, W+L) every shard executes only its own events, so shards never touch
// each other's state. Cross-shard interactions are expressed as posted
// events whose timestamps are at least one lookahead in the future (in a
// network simulation, L is the minimum cross-shard link latency, so every
// legal delivery satisfies this by construction). Posted events accumulate
// in per-(src,dst) queues during the window and are merged into the
// destination heaps at the window barrier in (time, source shard, post
// order) order — a fixed total order, so the order in which the shards run
// their windows cannot change a run.
//
// Every window runs on the goroutine that called RunUntil, RunFor or Run,
// one shard after another. K small heaps are cheaper to drive than one
// large one; a worker goroutine per shard, measured against this loop on
// a 2-vCPU host, did not pay for its CPU (DESIGN.md §13).
//
// A shard count of 1 bypasses the window machinery entirely: Shards(1) is
// the plain single-threaded Scheduler, bit for bit, and shard 0 always
// keeps the root RNG seed so the degenerate kernel replays existing
// recorded runs unchanged. See DESIGN.md §13.

package sim

import (
	"fmt"
	"sort"
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

// xentry is one cross-shard event waiting in a per-pair queue. Its
// position in the queue is its sequence number: entries are appended in
// the source shard's execution order, which is already deterministic.
type xentry struct {
	at  time.Duration
	fn  func(any)
	arg any
}

// xqueue is the single-producer queue for one (src, dst) shard pair. The
// source shard appends during window execution; the barrier (every shard
// parked) drains it. The backing array is reused, so steady-state posting
// allocates nothing.
type xqueue struct {
	entries []xentry
}

// xmerge is one entry of the barrier's merge scratch: the queue entry plus
// its (source shard, sequence) tiebreak key.
type xmerge struct {
	at  time.Duration
	src int
	seq int
	fn  func(any)
	arg any
}

// xmergeList sorts merge entries by (time, source shard, sequence) — the
// deterministic cross-shard delivery order.
type xmergeList []xmerge

func (m *xmergeList) Len() int      { return len(*m) }
func (m *xmergeList) Swap(i, j int) { (*m)[i], (*m)[j] = (*m)[j], (*m)[i] }
func (m *xmergeList) Less(i, j int) bool {
	a, b := (*m)[i], (*m)[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Shards is the sharded kernel. It starts no goroutine: every window,
// barrier and merge runs on the RunUntil/RunFor/Run caller's goroutine.
type Shards struct {
	shards    []*Scheduler
	lookahead time.Duration
	now       time.Duration // committed global time (last barrier)
	windowEnd time.Duration // cross-post floor while a window runs
	pairs     [][]xqueue    // [src][dst] cross-shard queues
	hooks     []func()      // barrier hooks (run quiesced, before the merge)
	merge     xmergeList    // barrier scratch, reused
	running   bool          // a window is executing
	halted    bool
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
	sh.pairs = make([][]xqueue, n)
	for i := range sh.pairs {
		sh.pairs[i] = make([]xqueue, n)
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
// have parked and before the kernel's own cross-event merge. Hooks run
// with the kernel quiesced — the place to exchange higher-level
// cross-shard state (netsim flushes its delivery bundles here).
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

// Post schedules fn(arg) at absolute time at on shard dst, on behalf of
// shard src. During a window, at must not precede the window's end — the
// conservative-lookahead contract; a violation means the caller's latency
// model is shorter than the lookahead and the run would not be
// deterministic, so Post panics rather than silently reordering. Posted
// events are merged into dst at the next barrier in (time, src, post
// order) order. Steady-state posting allocates nothing: the per-pair
// queues reuse their backing arrays.
func (sh *Shards) Post(src, dst int, at time.Duration, fn func(any), arg any) {
	if at < sh.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %v violates lookahead window ending %v", at, sh.windowEnd))
	}
	if len(sh.shards) == 1 {
		// Degenerate kernel: no windows, no barriers — inject directly,
		// sequenced at post time like any other schedule.
		sh.shards[0].PostAt(at, fn, arg)
		return
	}
	q := &sh.pairs[src][dst]
	q.entries = append(q.entries, xentry{at: at, fn: fn, arg: arg})
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
// inclusive for the boundary drain) and runs the barrier.
func (sh *Shards) runSpan(end time.Duration, inclusive bool) {
	sh.windowEnd = end
	sh.running = true
	for _, s := range sh.shards {
		if inclusive {
			s.RunUntil(end)
		} else {
			s.runWindow(end)
		}
	}
	sh.running = false
	// Barrier: all shards parked at end. Higher-level exchanges first,
	// then the kernel's own cross-event merge.
	for _, fn := range sh.hooks {
		fn()
	}
	sh.exchange()
	sh.now = end
	sh.windowEnd = 0
}

// exchange merges every pending cross-shard event into its destination
// heap in (time, source shard, post order) order. It runs quiesced and is
// allocation-free in the steady state (queue arrays and the merge scratch
// are reused).
func (sh *Shards) exchange() {
	for dst := range sh.shards {
		m := sh.merge[:0]
		for src := range sh.shards {
			q := &sh.pairs[src][dst]
			for i := range q.entries {
				e := &q.entries[i]
				m = append(m, xmerge{at: e.at, src: src, seq: i, fn: e.fn, arg: e.arg})
			}
		}
		if len(m) == 0 {
			sh.merge = m
			continue
		}
		sh.merge = m
		sort.Sort(&sh.merge)
		s := sh.shards[dst]
		for i := range sh.merge {
			e := &sh.merge[i]
			s.PostAt(e.at, e.fn, e.arg)
			e.fn, e.arg = nil, nil
		}
		for src := range sh.shards {
			q := &sh.pairs[src][dst]
			for i := range q.entries {
				q.entries[i].fn, q.entries[i].arg = nil, nil
			}
			q.entries = q.entries[:0]
		}
		sh.merge = sh.merge[:0]
	}
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
	sh.halted = false
	for !sh.halted && sh.now < deadline {
		start := sh.now
		next, ok := sh.earliest()
		if !ok || next >= deadline {
			break // nothing strictly before the deadline; drain handles the rest
		}
		if next > start {
			start = next // jump idle gaps: no events, hence no posts, in between
		}
		end := start + sh.lookahead
		if end > deadline {
			end = deadline
		}
		sh.runSpan(end, false)
	}
	if sh.halted {
		return
	}
	sh.runSpan(deadline, true)
}

// RunFor advances the sharded simulation by d.
func (sh *Shards) RunFor(d time.Duration) { sh.RunUntil(sh.Now() + d) }

// Run executes events until every shard's queue is empty.
func (sh *Shards) Run() {
	if len(sh.shards) == 1 {
		sh.shards[0].Run()
		sh.now = sh.shards[0].Now()
		return
	}
	sh.halted = false
	for !sh.halted {
		next, ok := sh.earliest()
		if !ok {
			return
		}
		sh.RunUntil(next + sh.lookahead)
	}
}

// Halt stops RunUntil/Run after the current window completes. Unlike
// Scheduler.Halt it cannot interrupt a window from inside an event
// callback — windows are the atomic unit of sharded execution.
func (sh *Shards) Halt() { sh.halted = true }

// Stop does nothing: the kernel holds no goroutine or other resource to
// release. It is kept so existing callers still compile.
func (sh *Shards) Stop() {}

// String describes the kernel state, for debugging.
func (sh *Shards) String() string {
	return fmt.Sprintf("sim.Shards{n=%d now=%v pending=%d fired=%d lookahead=%v}",
		len(sh.shards), sh.Now(), sh.Pending(), sh.Fired(), sh.lookahead)
}
