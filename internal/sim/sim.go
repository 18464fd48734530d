// Package sim provides a deterministic discrete-event scheduler and a
// virtual clock. All GulfStream simulations run on top of this kernel:
// every daemon, switch and network link schedules its work as events on a
// single queue, so a run is exactly reproducible given a seed and executes
// thousands of simulated seconds per wall second.
//
// The kernel is allocation-free in the steady state: fired and cancelled
// events return to a per-scheduler free list (the scheduler is
// single-threaded, so the list needs no locking), and a generation counter
// on each event keeps recycled events safe to reference from stale Timer
// handles. Events that differ only in when they fire and for whom — the
// receivers of one packet — are queued as one ArrivalList behind a single
// heap entry. See DESIGN.md §9.
//
// Shards splits one simulation over K such schedulers that advance in
// lookahead windows and exchange what crosses shards at window barriers
// in a fixed order, so any K replays the one-shard run. The package
// starts no goroutine: every window of every shard runs on the caller's
// goroutine. See shard.go and DESIGN.md §13.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number makes simultaneous events deterministic (FIFO).
//
// Events are pooled: gen increments every time an event is released back
// to the free list, so a Timer holding (event, gen) can detect that its
// event fired or was cancelled and has possibly been reused for an
// unrelated schedule.
type event struct {
	at    time.Duration
	seq   uint64
	gen   uint64
	index int // heap index; -1 when not queued
	fn    func()
	list  *ArrivalList // non-nil: the event fires the list's arrivals in turn
}

// heapEntry is one queue slot: the event's ordering key (at, seq) copied
// next to its pointer, so heap comparisons read the contiguous queue
// array instead of dereferencing scattered events.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// Scheduler is a single-threaded discrete-event executor with a virtual
// clock. It is not safe for concurrent use: all events run on the caller's
// goroutine, which is the point — determinism.
type Scheduler struct {
	now    time.Duration
	seq    uint64
	queue  []heapEntry // 4-ary min-heap ordered by (at, seq)
	free   []*event    // recycled events
	inList int         // arrivals queued behind the head of their list
	rng    *rand.Rand
	fired  uint64
}

// NewScheduler returns a scheduler whose clock starts at zero and whose
// random source is seeded with seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. All simulated
// components must draw randomness from here so runs replay exactly.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued. Every arrival of a posted
// ArrivalList counts, though the whole list occupies one heap entry.
func (s *Scheduler) Pending() int { return len(s.queue) + s.inList }

// --- event pool ---

// get takes an event from the free list (or the heap allocator).
func (s *Scheduler) get() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// alloc takes a pooled event and stamps it with the fire time and the next
// sequence number.
func (s *Scheduler) alloc(d time.Duration) *event {
	ev := s.get()
	if d < 0 {
		d = 0
	}
	ev.at = s.now + d
	ev.seq = s.seq
	s.seq++
	return ev
}

// release returns a fired or cancelled event to the free list, bumping its
// generation so stale Timer handles can never touch it again.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn, ev.list = nil, nil
	s.free = append(s.free, ev)
}

// --- intrusive 4-ary heap (concrete types: no interface dispatch) ---
//
// 4-ary halves the depth of a binary heap, so pops move half as many
// entries, and the four children of a node share at most two cache lines.

func (s *Scheduler) push(ev *event) {
	s.queue = append(s.queue, heapEntry{})
	s.siftUp(len(s.queue)-1, heapEntry{at: ev.at, seq: ev.seq, ev: ev})
}

// siftUp places e at or above hole i, moving displaced parents down.
func (s *Scheduler) siftUp(i int, e heapEntry) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at < e.at || (q[p].at == e.at && q[p].seq < e.seq) {
			break // parent fires first
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = e
	e.ev.index = i
}

// siftDown places e at or below hole i, pulling earlier children up.
func (s *Scheduler) siftDown(i int, e heapEntry) {
	q := s.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].at < q[m].at || (q[j].at == q[m].at && q[j].seq < q[m].seq) {
				m = j
			}
		}
		if e.at < q[m].at || (e.at == q[m].at && e.seq < q[m].seq) {
			break // e fires before its earliest child
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = e
	e.ev.index = i
}

// popMin removes and returns the earliest event.
func (s *Scheduler) popMin() *event {
	q := s.queue
	ev := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	ev.index = -1
	return ev
}

// remove deletes a pending event from an arbitrary heap position.
func (s *Scheduler) remove(ev *event) {
	i := ev.index
	q := s.queue
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	s.queue = q[:n]
	ev.index = -1
	if i == n {
		return
	}
	s.siftDown(i, last)
	if last.ev.index == i {
		s.siftUp(i, last)
	}
}

// fix restores heap order after ev's (at, seq) key changed in place.
func (s *Scheduler) fix(ev *event) {
	i := ev.index
	e := heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	s.siftDown(i, e)
	if ev.index == i {
		s.siftUp(i, e)
	}
}

// --- timers and scheduling ---

// Timer is a handle to a scheduled event, with the same Stop contract as
// time.Timer: Stop reports whether the call prevented the event from
// firing. The handle captures the event's generation, so once the event
// fires (and is recycled for an unrelated schedule) the handle goes inert
// instead of cancelling someone else's event.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint64
	fn  func() // retained so Reset can re-arm after a fire or Stop
}

// active reports whether the timer still owns a pending event.
func (t *Timer) active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Stop cancels the timer. It returns false if the event already fired or
// was already stopped; in that case the stale event reference is dropped,
// so a recycled event can never be resurrected through an old handle.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	if !t.active() {
		t.ev = nil
		return false
	}
	ev := t.ev
	t.ev = nil
	t.s.remove(ev)
	t.s.release(ev)
	return true
}

// Reset re-arms the timer to fire d from now, reporting whether it was
// still pending (like time.Timer.Reset). A pending timer keeps its pooled
// event — the fixed-interval fast path: rescheduling from inside the
// timer's own callback allocates nothing. A fired or stopped timer is
// re-armed with its original callback.
func (t *Timer) Reset(d time.Duration) bool {
	if t.active() {
		if d < 0 {
			d = 0
		}
		ev := t.ev
		ev.at = t.s.now + d
		ev.seq = t.s.seq
		t.s.seq++
		t.s.fix(ev)
		return true
	}
	ev := t.s.alloc(d)
	ev.fn = t.fn
	t.s.push(ev)
	t.ev = ev
	t.gen = ev.gen
	return false
}

// AfterFunc schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: AfterFunc with nil function")
	}
	ev := s.alloc(d)
	ev.fn = fn
	s.push(ev)
	return &Timer{s: s, ev: ev, gen: ev.gen, fn: fn}
}

// Schedule runs fn once at d from now without a cancellation handle — the
// allocation-free path for fire-and-forget work (the event comes from and
// returns to the scheduler's pool, and no Timer is created).
func (s *Scheduler) Schedule(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	ev := s.alloc(d)
	ev.fn = fn
	s.push(ev)
}

// At schedules fn at absolute virtual time at. Times in the past run
// immediately (at the current instant).
func (s *Scheduler) At(at time.Duration, fn func()) *Timer {
	return s.AfterFunc(at-s.now, fn)
}

// Arrival is one firing of an ArrivalList: the instant, the sequence
// number that orders it among simultaneous events, and the receiver handed
// to the list's callback.
type Arrival struct {
	At  time.Duration
	Seq uint64
	Dst any
}

// ArrivalList is a batch of events that share a callback and differ only
// in when they fire and for whom — the receivers of one transmission. The
// whole list occupies a single heap entry keyed by its next arrival: firing
// one re-keys the entry in place instead of popping one event and having
// pushed the rest, so a 500-receiver fan-out costs the heap one insertion
// and 499 (usually trivial) sift-downs from the root. Each arrival is still
// one event to Fired, Pending, Step and the run loops' bounds: a list is
// how events are stored, not a coarser unit of execution.
//
// The owner fills Fire, Arg and Arrivals, posts the list with PostArrivals
// and must leave it alone until Fire has been called with last set; it may
// recycle the list from inside that call, once it is done with Arg.
type ArrivalList struct {
	// Fire runs once per arrival, at its instant.
	Fire func(arg, dst any, last bool)
	Arg  any
	// Arrivals must be sorted by (At, Seq), with sequence numbers taken
	// from ReserveSeq.
	Arrivals []Arrival
	next     int
}

// ReserveSeq reserves n consecutive sequence numbers and returns the first.
// Numbering a list's arrivals from the block in the order the caller would
// have scheduled them one by one gives every arrival the sequence number
// that scheduling each arrival by itself would have given it — so
// batching changes where events are stored and nothing about their order.
func (s *Scheduler) ReserveSeq(n int) uint64 {
	base := s.seq
	s.seq += uint64(n)
	return base
}

// PostArrivals queues l. Its first arrival must not lie in the past.
func (s *Scheduler) PostArrivals(l *ArrivalList) {
	if l.Fire == nil || len(l.Arrivals) == 0 {
		panic("sim: PostArrivals needs a callback and at least one arrival")
	}
	first := &l.Arrivals[0]
	if first.At < s.now {
		panic(fmt.Sprintf("sim: PostArrivals at %v before current time %v", first.At, s.now))
	}
	l.next = 0
	ev := s.get()
	ev.at, ev.seq, ev.list = first.At, first.Seq, l
	s.inList += len(l.Arrivals) - 1
	s.push(ev)
}

// stepList fires the next arrival of the list at the root of the heap. The
// entry is re-keyed (or, after the last arrival, removed) before the
// callback runs, so the callback sees a consistent queue and may schedule,
// or cancel like any other.
func (s *Scheduler) stepList(ev *event, l *ArrivalList) {
	a := &l.Arrivals[l.next]
	l.next++
	s.now = a.At
	s.fired++
	fire, arg, dst := l.Fire, l.Arg, a.Dst
	last := l.next == len(l.Arrivals)
	if last {
		s.popMin()
		s.release(ev)
	} else {
		nx := &l.Arrivals[l.next]
		ev.at, ev.seq = nx.At, nx.Seq
		s.inList--
		s.siftDown(0, heapEntry{at: nx.At, seq: nx.Seq, ev: ev})
	}
	fire(arg, dst, last)
}

// Step executes the single earliest event. It reports false when the queue
// is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	if ev := s.queue[0].ev; ev.list != nil {
		s.stepList(ev, ev.list)
		return true
	}
	ev := s.popMin()
	s.now = ev.at
	fn := ev.fn
	// Recycle before running: the callback may schedule (reusing this very
	// event, under a new generation) or Stop its own timer (a no-op now).
	s.release(ev)
	s.fired++
	fn()
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled at exactly the deadline do run.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// runWindow executes events with timestamps strictly before end, then
// advances the clock to end. This is the body of one conservative-lookahead
// window (see shard.go): the exclusive bound means every shard stops at the
// same instant, and events at exactly the window boundary wait for the
// barrier that happens there.
func (s *Scheduler) runWindow(end time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at < end {
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// String describes the scheduler state, for debugging.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sim.Scheduler{now=%v pending=%d fired=%d}", s.now, s.Pending(), s.fired)
}
