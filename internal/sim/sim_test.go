package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	s.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	s.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestSchedulerSimultaneousFIFO(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var trace []time.Duration
	s.AfterFunc(time.Second, func() {
		trace = append(trace, s.Now())
		s.AfterFunc(time.Second, func() {
			trace = append(trace, s.Now())
		})
	})
	s.Run()
	if len(trace) != 2 || trace[0] != time.Second || trace[1] != 2*time.Second {
		t.Fatalf("trace = %v", trace)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should return true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should return false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.AfterFunc(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should return false")
	}
}

func TestStopInterleavedWithOtherEvents(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	var t2 *Timer
	s.AfterFunc(1*time.Second, func() {
		fired = append(fired, "a")
		t2.Stop()
	})
	t2 = s.AfterFunc(2*time.Second, func() { fired = append(fired, "b") })
	s.AfterFunc(3*time.Second, func() { fired = append(fired, "c") })
	s.Run()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Fatalf("fired = %v, want [a c]", fired)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.AfterFunc(time.Second, func() { count++ })
	s.AfterFunc(10*time.Second, func() { count++ })
	s.RunUntil(5 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
	s.RunFor(5 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRunUntilInclusiveDeadline(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.AfterFunc(5*time.Second, func() { fired = true })
	s.RunUntil(5 * time.Second)
	if !fired {
		t.Fatal("event exactly at deadline did not fire")
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(10 * time.Second)
	var at time.Duration = -1
	s.AfterFunc(-5*time.Second, func() { at = s.Now() })
	s.Run()
	if at != 10*time.Second {
		t.Fatalf("negative-delay event fired at %v, want 10s", at)
	}
}

func TestAtSchedulesAbsolute(t *testing.T) {
	s := NewScheduler(1)
	var at time.Duration
	s.At(7*time.Second, func() { at = s.Now() })
	s.Run()
	if at != 7*time.Second {
		t.Fatalf("At event fired at %v, want 7s", at)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := NewScheduler(seed)
		var fires []time.Duration
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 100 {
				return
			}
			n++
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.AfterFunc(d, func() {
				fires = append(fires, s.Now())
				schedule()
			})
		}
		schedule()
		s.Run()
		return fires
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(1)
		var fires []time.Duration
		for _, d := range delays {
			s.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fires = append(fires, s.Now())
			})
		}
		s.Run()
		if len(fires) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fires, func(i, j int) bool { return fires[i] < fires[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Stop prevents exactly the stopped subset from firing.
func TestPropertyStopSubset(t *testing.T) {
	f := func(delays []uint8, stopMask []bool) bool {
		s := NewScheduler(1)
		fired := make([]bool, len(delays))
		timers := make([]*Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = s.AfterFunc(time.Duration(d)*time.Millisecond, func() { fired[i] = true })
		}
		stopped := make([]bool, len(delays))
		for i := range timers {
			if i < len(stopMask) && stopMask[i] {
				stopped[i] = timers[i].Stop()
				if !stopped[i] {
					return false // nothing fired yet, Stop must succeed
				}
			}
		}
		s.Run()
		for i := range delays {
			if fired[i] == stopped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPendingAndFiredCounters(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Fired() != 5 || s.Pending() != 0 {
		t.Fatalf("Fired = %d Pending = %d, want 5/0", s.Fired(), s.Pending())
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(time.Duration(rng.Intn(1000))*time.Millisecond, func() {})
		s.Step()
	}
}

func BenchmarkSchedulerTimerStop(b *testing.B) {
	s := NewScheduler(1)
	for i := 0; i < b.N; i++ {
		tm := s.AfterFunc(time.Hour, func() {})
		tm.Stop()
	}
}
