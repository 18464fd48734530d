package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Arrival lists against the reference they replace: one AfterCall per
// arrival. Two schedulers run the same random script — batches of arrivals
// with colliding instants, handlers that post further batches, schedule
// plain events, stop and reset timers and halt the loop, and a driver that
// alternates RunUntil, runWindow, Step and Run with bounds that fall inside
// lists — one posting every batch as an ArrivalList, the other scheduling
// each arrival by itself in the same order. Everything observable must
// agree at every checkpoint: the firing log, the clock, Fired and Pending.

type firing struct {
	at  time.Duration
	dst int // arrival id; negative: timer -dst; 1<<30 and up: plain events
}

// world is one scheduler running the script. Every decision comes from
// rng, which both worlds seed alike and — as long as they fire in the same
// order — consume alike.
type world struct {
	s      *Scheduler
	lists  bool
	rng    *rand.Rand
	log    []firing
	timers []*Timer
	nextID int
	posted int // lists posted (lists world only)
}

// tick is the script's time grain: coarse, so that arrivals of one batch,
// of different batches, timers and plain events keep landing on the same
// instant and the sequence numbers have to break the tie.
const tick = 10 * time.Microsecond

func newWorld(seed int64, lists bool) *world {
	w := &world{s: NewScheduler(seed), lists: lists, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 4; i++ {
		id := -(i + 1)
		w.timers = append(w.timers, w.s.AfterFunc(w.offset(), func() { w.fire(id) }))
	}
	return w
}

func (w *world) offset() time.Duration { return time.Duration(w.rng.Intn(12)) * tick }

// batch schedules n arrivals, numbered in the order they are drawn.
func (w *world) batch(n int) {
	now := w.s.Now()
	if !w.lists {
		for i := 0; i < n; i++ {
			w.nextID++
			w.s.AfterCall(w.offset(), func(arg any) { w.fire(arg.(int)) }, w.nextID)
		}
		return
	}
	l := &ArrivalList{Fire: func(_, dst any, _ bool) { w.fire(dst.(int)) }}
	for i := 0; i < n; i++ {
		w.nextID++
		l.Arrivals = append(l.Arrivals, Arrival{At: now + w.offset(), Seq: uint64(i), Dst: w.nextID})
	}
	slices.SortFunc(l.Arrivals, func(a, b Arrival) int {
		if a.At != b.At {
			return int(a.At - b.At)
		}
		return int(a.Seq) - int(b.Seq)
	})
	base := w.s.ReserveSeq(n)
	for i := range l.Arrivals {
		l.Arrivals[i].Seq += base
	}
	before := len(w.s.queue)
	w.s.PostArrivals(l)
	if len(w.s.queue) != before+1 {
		panic(fmt.Sprintf("a list of %d took %d heap entries, want 1", n, len(w.s.queue)-before))
	}
	w.posted++
}

// fire logs one firing and then, like a packet handler, does something to
// the scheduler it runs on.
func (w *world) fire(id int) {
	w.log = append(w.log, firing{w.s.Now(), id})
	if w.nextID > 4000 {
		return // let the script run dry
	}
	switch w.rng.Intn(12) {
	case 0, 1:
		w.batch(1 + w.rng.Intn(9))
	case 2:
		id := 1<<30 + w.nextID
		w.s.Schedule(w.offset(), func() { w.fire(id) })
	case 3:
		w.timers[w.rng.Intn(len(w.timers))].Stop()
	case 4, 5:
		w.timers[w.rng.Intn(len(w.timers))].Reset(w.offset())
	case 6:
		w.s.Halt()
	}
}

// drive sends a batch from outside the event loop now and then, as a
// timer-driven sender would, and advances the world by one randomly chosen
// run call.
func (w *world) drive() {
	if w.nextID <= 4000 && w.rng.Intn(3) == 0 {
		w.batch(1 + w.rng.Intn(9))
	}
	switch w.rng.Intn(5) {
	case 0:
		w.s.RunUntil(w.s.Now() + w.offset()) // inclusive bound, often mid-list
	case 1:
		w.s.runWindow(w.s.Now() + w.offset()) // exclusive bound
	case 2:
		w.s.Step()
	case 3:
		w.s.RunFor(3 * tick)
	case 4:
		w.s.Run() // until a handler halts it, or dry
	}
}

func TestArrivalListsFireLikeSingleEvents(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a, b := newWorld(seed, true), newWorld(seed, false)
		a.batch(12)
		b.batch(12)
		for round := 0; a.nextID <= 4000 || a.s.Pending() > 0 || b.s.Pending() > 0; round++ {
			if round > 100_000 {
				t.Fatalf("seed %d: script never ran dry", seed)
			}
			a.drive()
			b.drive()
			if a.s.Now() != b.s.Now() || a.s.Fired() != b.s.Fired() || a.s.Pending() != b.s.Pending() {
				t.Fatalf("seed %d round %d: lists now=%v fired=%d pending=%d, single events now=%v fired=%d pending=%d",
					seed, round, a.s.Now(), a.s.Fired(), a.s.Pending(), b.s.Now(), b.s.Fired(), b.s.Pending())
			}
			if !slices.Equal(a.log, b.log) {
				for i := range a.log {
					if i >= len(b.log) || a.log[i] != b.log[i] {
						t.Fatalf("seed %d round %d: firing %d differs: lists %+v, single events %+v",
							seed, round, i, a.log[i:min(i+3, len(a.log))], b.log[i:min(i+3, len(b.log))])
					}
				}
				t.Fatalf("seed %d round %d: lists fired %d, single events %d", seed, round, len(a.log), len(b.log))
			}
		}
		if a.posted < 50 || len(a.log) < 2000 {
			t.Errorf("seed %d: only %d lists and %d firings — the script is not exercising much", seed, a.posted, len(a.log))
		}
		if len(a.s.queue) != 0 || a.s.inList != 0 {
			t.Errorf("seed %d: dry scheduler holds %d entries and %d list arrivals", seed, len(a.s.queue), a.s.inList)
		}
	}
}

// TestArrivalListBoundsFallInsideAList pins the two run-loop bounds by
// hand: a list with arrivals at 10, 20, 20, 30 µs stopped by an exclusive
// window bound and an inclusive deadline that both fall between its
// arrivals, with Pending counting what is left each time.
func TestArrivalListBoundsFallInsideAList(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	l := &ArrivalList{Fire: func(_, dst any, last bool) {
		got = append(got, dst.(int))
		if last != (dst.(int) == 4) {
			t.Errorf("arrival %d: last = %v", dst.(int), last)
		}
	}}
	base := s.ReserveSeq(4)
	for i, us := range []int{10, 20, 20, 30} {
		l.Arrivals = append(l.Arrivals, Arrival{At: time.Duration(us) * time.Microsecond, Seq: base + uint64(i), Dst: i + 1})
	}
	s.PostArrivals(l)
	if s.Pending() != 4 || len(s.queue) != 1 {
		t.Fatalf("posted: pending %d in %d heap entries, want 4 in 1", s.Pending(), len(s.queue))
	}
	s.runWindow(20 * time.Microsecond) // exclusive: only the 10 µs arrival
	if !slices.Equal(got, []int{1}) || s.Pending() != 3 || s.Now() != 20*time.Microsecond {
		t.Fatalf("after the window: fired %v, pending %d, now %v", got, s.Pending(), s.Now())
	}
	s.RunUntil(20 * time.Microsecond) // inclusive: both 20 µs arrivals, in seq order
	if !slices.Equal(got, []int{1, 2, 3}) || s.Pending() != 1 {
		t.Fatalf("after the deadline: fired %v, pending %d", got, s.Pending())
	}
	s.Run()
	if !slices.Equal(got, []int{1, 2, 3, 4}) || s.Pending() != 0 || s.Fired() != 4 {
		t.Fatalf("at the end: fired %v, pending %d, Fired %d", got, s.Pending(), s.Fired())
	}
}

// TestAllocArrivalList: posting and draining a list allocates nothing once
// the event pool is warm — the list itself belongs to the caller.
func TestAllocArrivalList(t *testing.T) {
	s := NewScheduler(1)
	l := &ArrivalList{Fire: func(_, _ any, _ bool) {}, Arrivals: make([]Arrival, 64)}
	post := func() {
		base := s.ReserveSeq(len(l.Arrivals))
		for i := range l.Arrivals {
			l.Arrivals[i] = Arrival{At: s.Now() + time.Duration(i)*tick, Seq: base + uint64(i), Dst: l}
		}
		s.PostArrivals(l)
		s.Run()
	}
	post()
	if got := testing.AllocsPerRun(100, post); got != 0 {
		t.Errorf("post+drain of a 64-arrival list: %.1f allocs/op, want 0", got)
	}
}
