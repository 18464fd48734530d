package sim

import (
	"testing"
	"time"
)

// Allocation regression guards for the pooled event kernel: once the free
// list is warm, the fire-and-forget scheduling paths and in-callback timer
// reschedules must not allocate.

// TestAllocSchedule: Schedule + fire recycles one pooled event, zero
// allocations in the steady state.
func TestAllocSchedule(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	s.Schedule(0, fn)
	s.Run()
	got := testing.AllocsPerRun(200, func() {
		s.Schedule(time.Millisecond, fn)
		s.Run()
	})
	if got != 0 {
		t.Errorf("Schedule+fire: %.1f allocs/op, want 0", got)
	}
}

// TestAllocTimerResetLoop: a periodic timer rescheduling itself from its
// own callback (the fixed-interval fast path) runs allocation-free.
func TestAllocTimerResetLoop(t *testing.T) {
	s := NewScheduler(1)
	fires := 0
	var tm *Timer
	tm = s.AfterFunc(time.Millisecond, func() {
		fires++
		tm.Reset(time.Millisecond)
	})
	s.RunFor(10 * time.Millisecond) // warm: event recycles through the pool
	start := fires
	got := testing.AllocsPerRun(50, func() {
		s.RunFor(time.Millisecond)
	})
	if got != 0 {
		t.Errorf("periodic Reset loop: %.1f allocs/op, want 0", got)
	}
	if fires == start {
		t.Fatal("timer stopped firing")
	}
	tm.Stop()
}

// TestAllocAfterFunc budgets the cancellable path: AfterFunc hands back
// a fresh Timer handle (one allocation) but the event itself must still
// come from the pool.
func TestAllocAfterFunc(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	s.AfterFunc(0, fn)
	s.Run()
	got := testing.AllocsPerRun(200, func() {
		s.AfterFunc(time.Millisecond, fn)
		s.Run()
	})
	if got > 1 {
		t.Errorf("AfterFunc+fire: %.1f allocs/op, want <= 1 (the Timer handle)", got)
	}
}

// TestTimerStopAfterReuse pins the generation-counter contract: once a
// timer's event has fired and been recycled for an unrelated schedule, the
// stale handle's Stop must go inert instead of cancelling the new owner.
func TestTimerStopAfterReuse(t *testing.T) {
	s := NewScheduler(1)
	firstRan := false
	tm := s.AfterFunc(time.Millisecond, func() { firstRan = true })
	s.Run()
	if !firstRan {
		t.Fatal("first callback never ran")
	}
	// The fired event is on the free list; this schedule reuses it.
	secondRan := false
	s.Schedule(time.Millisecond, func() { secondRan = true })
	if tm.Stop() {
		t.Error("Stop after fire reported true")
	}
	s.Run()
	if !secondRan {
		t.Fatal("stale Timer.Stop cancelled an unrelated schedule reusing its event")
	}
}

// TestTimerStopAfterStopAndReuse is the same guard for the cancel path:
// Stop, let the event be reused, Stop again.
func TestTimerStopAfterStopAndReuse(t *testing.T) {
	s := NewScheduler(1)
	tm := s.AfterFunc(time.Minute, func() { t.Fatal("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	ran := false
	s.Schedule(time.Millisecond, func() { ran = true })
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	s.Run()
	if !ran {
		t.Fatal("double Stop cancelled an unrelated schedule reusing the event")
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Millisecond, fn)
		s.Run()
	}
}
