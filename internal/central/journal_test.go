package central

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tapFixture is a fixture with a traffic tap, for tests that assert on
// what Central actually sends.
type tapFixture struct {
	*fixture
	net    *netsim.Network
	traces []netsim.Trace
}

func newTapFixture(t *testing.T, j *journal.Journal) *tapFixture {
	t.Helper()
	sched := sim.NewScheduler(1)
	res := netsim.NewStaticResolver()
	net := netsim.New(sched, res)
	ep := net.AddAdapter(ip(9, 9), "central-host")
	res.Attach(ip(9, 9), "admin")
	bus := event.NewBus(true)
	cfg := DefaultConfig()
	cfg.StabilizeWait = 5 * time.Second
	cfg.MoveWindow = 30 * time.Second
	c := New(cfg, clock{sched}, bus, nil)
	if j != nil {
		c.SetJournal(j)
	}
	tf := &tapFixture{fixture: &fixture{sched: sched, bus: bus, c: c, ep: ep}, net: net}
	net.Tap(func(tr netsim.Trace) { tf.traces = append(tf.traces, tr) })
	c.Activate(ep)
	return tf
}

func (tf *tapFixture) reportUnicasts() int {
	n := 0
	for _, tr := range tf.traces {
		if tr.Dst.Port == transport.PortReport && !tr.Multicast {
			n++
		}
	}
	return n
}

func (tf *tapFixture) reportMulticasts() int {
	n := 0
	for _, tr := range tf.traces {
		if tr.Dst.Port == transport.PortReport && tr.Multicast {
			n++
		}
	}
	return n
}

// TestResyncRateLimitAtTimeZero is the regression test for the zero-clock
// hole: a resync requested at simulated time 0 recorded resyncAt == 0,
// which the old `!= 0` guard read as "never requested", so the rate limit
// never engaged at the start of a simulation.
func TestResyncRateLimitAtTimeZero(t *testing.T) {
	tf := newTapFixture(t, nil)
	tf.full(ip(1, 3), 1, member(1, 3, "n3", true), member(1, 2, "n2", true))
	if rep := tf.c.reporters[ip(1, 3)]; rep == nil || rep.src.IP == 0 {
		t.Fatal("group src not recorded")
	}
	if now := tf.sched.Now(); now != 0 {
		t.Fatalf("test requires time zero, at %v", now)
	}
	base := tf.reportUnicasts()
	tf.c.requestGroupResync(ip(1, 3))
	tf.c.requestGroupResync(ip(1, 3)) // must be rate-limited, even at t=0
	if got := tf.reportUnicasts() - base; got != 1 {
		t.Fatalf("%d resync requests sent at t=0, want 1 (rate limit)", got)
	}
	// After the window the next request goes through again.
	tf.sched.RunFor(11 * time.Second)
	tf.c.requestGroupResync(ip(1, 3))
	if got := tf.reportUnicasts() - base; got != 2 {
		t.Fatalf("%d resync requests after window, want 2", got)
	}
}

// TestJournalMirrorsView drives a report sequence through a journaling
// Central and asserts the journal's folded state tracks the live view.
func TestJournalMirrorsView(t *testing.T) {
	j := journal.NewMem()
	tf := newTapFixture(t, j)
	tf.full(ip(1, 3), 1, member(1, 3, "n3", true), member(1, 2, "n2", true))
	tf.full(ip(2, 5), 1, member(2, 5, "m5", true), member(2, 1, "m1", true))
	// Delta: join and leave.
	tf.report(&wire.Report{Leader: ip(1, 3), Version: 2, Members: []wire.Member{member(1, 1, "n1", true)}})
	tf.report(&wire.Report{Leader: ip(1, 3), Version: 3, Left: []transport.IP{ip(1, 2)}})

	st := j.State()
	view := tf.c.Groups()
	if len(st.Groups) != len(view) {
		t.Fatalf("journal has %d groups, view has %d", len(st.Groups), len(view))
	}
	for leader, members := range view {
		gs := st.Groups[leader]
		if gs == nil {
			t.Fatalf("journal missing group %v", leader)
		}
		if len(gs.Members) != len(members) {
			t.Fatalf("group %v: journal %d members, view %d", leader, len(gs.Members), len(members))
		}
	}
	// The departed adapter's death must be journaled.
	a, ok := st.Adapters[ip(1, 2)]
	if !ok || a.Alive {
		t.Fatalf("departed adapter in journal: %+v (ok=%v)", a, ok)
	}
	if a2, ok := st.Adapters[ip(1, 1)]; !ok || !a2.Alive {
		t.Fatal("joined adapter not alive in journal")
	}
}

// TestRestoreFromJournalSkipsMulticast reopens a journal store under a
// fresh Central (the gsd-restart path) and asserts activation rebuilds
// the view with zero multicast resync pulls — only per-group unicast
// verification requests, since disk state was never streamed.
func TestRestoreFromJournalSkipsMulticast(t *testing.T) {
	store := journal.NewMemStore()
	j, err := journal.New(store, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tf := newTapFixture(t, j)
	tf.full(ip(1, 3), 1, member(1, 3, "n3", true), member(1, 2, "n2", true))
	tf.full(ip(2, 5), 1, member(2, 5, "m5", true), member(2, 1, "m1", true))
	want := tf.c.Groups()

	// "Restart": a second Central over a journal reopened from the store.
	j2, err := journal.New(store, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Loaded() {
		t.Fatal("reopened journal reports no state")
	}
	tf2 := newTapFixture(t, j2)
	got := tf2.c.Groups()
	if len(got) != len(want) {
		t.Fatalf("restored %d groups, want %d", len(got), len(want))
	}
	for leader, members := range want {
		if len(got[leader]) != len(members) {
			t.Fatalf("group %v restored with %v, want %v", leader, got[leader], members)
		}
	}
	if n := tf2.reportMulticasts(); n != 0 {
		t.Fatalf("restored activation multicast %d resync pulls, want 0", n)
	}
	// Disk-loaded groups are unverified: one unicast verification each.
	if n := tf2.reportUnicasts(); n != len(want) {
		t.Fatalf("%d verification unicasts, want %d", n, len(want))
	}
	// The cold-start control: a journal-less Central multicasts.
	tf3 := newTapFixture(t, nil)
	if n := tf3.reportMulticasts(); n == 0 {
		t.Fatal("cold activation sent no multicast resync (control broken)")
	}
	// Epoch advanced on the new regime.
	if j2.Epoch() <= j.Epoch()-1 {
		t.Fatalf("epoch did not advance: %d after %d", j2.Epoch(), j.Epoch())
	}
}
