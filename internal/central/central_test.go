package central

import (
	"testing"
	"time"

	"repro/internal/configdb"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

type clock struct{ s *sim.Scheduler }

func (c clock) Now() time.Duration { return c.s.Now() }
func (c clock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

type fixture struct {
	sched *sim.Scheduler
	bus   *event.Bus
	c     *Central
	ep    *netsim.Adapter
	seq   uint64
}

func ip(c, d byte) transport.IP { return transport.MakeIP(10, 0, c, d) }

func newFixture(t *testing.T, db *configdb.DB) *fixture { return newJournaledFixture(t, db, nil) }

// newJournaledFixture is newFixture with j (if not nil) attached before
// Central activates.
func newJournaledFixture(t *testing.T, db *configdb.DB, j *journal.Journal) *fixture {
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
	c := New(cfg, clock{sched}, bus, db)
	if j != nil {
		c.SetJournal(j)
	}
	c.Activate(ep)
	return &fixture{sched: sched, bus: bus, c: c, ep: ep}
}

func member(c, d byte, node string, admin bool) wire.Member {
	return wire.Member{IP: ip(c, d), Node: node, Admin: admin}
}

func (f *fixture) report(r *wire.Report) {
	f.seq++
	r.Seq = f.seq
	f.c.HandleReport(transport.Addr{IP: ip(9, 9), Port: transport.PortReport}, r)
}

func (f *fixture) full(leader transport.IP, version uint64, members ...wire.Member) {
	f.report(&wire.Report{Leader: leader, Version: version, Full: true, Members: members})
}

// expectMove registers a Central-initiated move of ip, as MoveAdapter
// does, without the SNMP side.
func (f *fixture) expectMove(ip transport.IP, deadline time.Duration) {
	f.c.commit(journal.Record{Kind: journal.RecMoveExpect, Adapter: ip, Deadline: deadline})
}

func TestFullReportBuildsView(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 3), 1, member(1, 3, "n3", true), member(1, 2, "n2", true), member(1, 1, "n1", true))
	groups := f.c.Groups()
	if len(groups) != 1 || len(groups[ip(1, 3)]) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if f.bus.Count(event.GroupFormed) != 1 {
		t.Fatal("no GroupFormed")
	}
	if f.bus.Count(event.AdapterJoined) != 0 {
		t.Fatal("initial members must not produce join events")
	}
	alive, known := f.c.AdapterAlive(ip(1, 2))
	if !known || !alive {
		t.Fatal("member not tracked alive")
	}
}

func TestDeltaJoinAndLeave(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 3), 1, member(1, 3, "n3", true), member(1, 2, "n2", true))
	f.report(&wire.Report{Leader: ip(1, 3), Version: 2, Members: []wire.Member{member(1, 1, "n1", true)}})
	if f.bus.Count(event.AdapterJoined) != 1 {
		t.Fatal("join delta not published")
	}
	f.report(&wire.Report{Leader: ip(1, 3), Version: 3, Left: []transport.IP{ip(1, 2)}})
	if f.bus.Count(event.AdapterFailed) != 1 {
		t.Fatal("leave delta not published")
	}
	if alive, _ := f.c.AdapterAlive(ip(1, 2)); alive {
		t.Fatal("departed member still alive")
	}
	if len(f.c.Groups()[ip(1, 3)]) != 2 {
		t.Fatalf("group = %v", f.c.Groups())
	}
}

func TestDuplicateReportIgnored(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 3), 1, member(1, 3, "n3", true))
	r := &wire.Report{Leader: ip(1, 3), Version: 2, Members: []wire.Member{member(1, 1, "n1", true)}, Seq: f.seq + 1}
	f.seq++
	src := transport.Addr{IP: ip(9, 9), Port: transport.PortReport}
	f.c.HandleReport(src, r)
	f.c.HandleReport(src, r) // duplicate retransmission
	if n := f.bus.Count(event.AdapterJoined); n != 1 {
		t.Fatalf("duplicate applied: %d joins", n)
	}
}

func TestTakeoverViaPrevLeader(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1,
		member(1, 5, "n5", true), member(1, 4, "n4", true), member(1, 3, "n3", true))
	// Successor n4 takes over; n5 is gone.
	f.report(&wire.Report{
		Leader: ip(1, 4), Version: 2, Full: true, PrevLeader: ip(1, 5), PrevVersion: 1,
		Members: []wire.Member{member(1, 4, "n4", true), member(1, 3, "n3", true)},
	})
	if alive, known := f.c.AdapterAlive(ip(1, 5)); !known || alive {
		t.Fatal("dead old leader not marked")
	}
	if f.bus.Count(event.LeaderChanged) != 1 {
		t.Fatal("no LeaderChanged")
	}
	groups := f.c.Groups()
	if len(groups) != 1 || len(groups[ip(1, 4)]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	fails := f.bus.Filter(event.AdapterFailed)
	if len(fails) != 1 || fails[0].Adapter != ip(1, 5) {
		t.Fatalf("failures = %v", fails)
	}
}

func TestOrphanSingletonDoesNotKillOldGroup(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1,
		member(1, 5, "n5", true), member(1, 4, "n4", true), member(1, 3, "n3", true))
	// n3 orphaned itself and reports a fresh singleton with no lineage.
	f.report(&wire.Report{
		Leader: ip(1, 3), Version: 1001, Full: true,
		Members: []wire.Member{member(1, 3, "n3", true)},
	})
	// Others must stay alive.
	for _, a := range []transport.IP{ip(1, 5), ip(1, 4)} {
		if alive, _ := f.c.AdapterAlive(a); !alive {
			t.Fatalf("adapter %v wrongly killed", a)
		}
	}
	if f.bus.Count(event.AdapterFailed) != 0 {
		t.Fatalf("failures published: %v", f.bus.Filter(event.AdapterFailed))
	}
	// n3 now lives in its own group only.
	groups := f.c.Groups()
	if len(groups[ip(1, 5)]) != 2 || len(groups[ip(1, 3)]) != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestMergeMovesMembersBetweenGroups(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "n5", true), member(1, 4, "n4", true))
	f.full(ip(1, 9), 1, member(1, 9, "n9", true))
	// 10.0.1.9 absorbs the other group.
	f.report(&wire.Report{Leader: ip(1, 9), Version: 2,
		Members: []wire.Member{member(1, 5, "n5", true), member(1, 4, "n4", true)}})
	groups := f.c.Groups()
	if len(groups) != 1 || len(groups[ip(1, 9)]) != 3 {
		t.Fatalf("groups after merge = %v", groups)
	}
	if f.bus.Count(event.AdapterFailed) != 0 {
		t.Fatal("merge produced failures")
	}
}

func TestNodeCorrelation(t *testing.T) {
	f := newFixture(t, nil)
	// Node "web" has two adapters, members (not leaders) of two groups.
	f.full(ip(1, 9), 1, member(1, 9, "lead-a", true), member(1, 4, "web", true))
	f.full(ip(2, 9), 1, wire.Member{IP: ip(2, 9), Node: "lead-b"}, wire.Member{IP: ip(2, 4), Node: "web"})
	// First adapter dies: node still alive.
	f.report(&wire.Report{Leader: ip(1, 9), Version: 2, Left: []transport.IP{ip(1, 4)}})
	if !f.c.NodeAlive("web") {
		t.Fatal("node dead with one live adapter")
	}
	if f.bus.Count(event.NodeFailed) != 0 {
		t.Fatal("premature NodeFailed")
	}
	// Second adapter dies: node failed.
	f.report(&wire.Report{Leader: ip(2, 9), Version: 2, Left: []transport.IP{ip(2, 4)}})
	if f.c.NodeAlive("web") {
		t.Fatal("node alive with all adapters dead")
	}
	nf := f.bus.Filter(event.NodeFailed)
	if len(nf) != 1 || nf[0].Node != "web" {
		t.Fatalf("NodeFailed events = %v", nf)
	}
	// Recovery: one adapter rejoins.
	f.report(&wire.Report{Leader: ip(2, 9), Version: 3,
		Members: []wire.Member{{IP: ip(2, 4), Node: "web"}}})
	if !f.c.NodeAlive("web") {
		t.Fatal("node not recovered")
	}
	if f.bus.Count(event.NodeRecovered) != 1 {
		t.Fatal("no NodeRecovered")
	}
}

func TestSwitchCorrelation(t *testing.T) {
	db := configdb.New()
	_ = db.AddAdapter(configdb.AdapterSpec{IP: ip(1, 1), Node: "na", Index: 0, VLAN: 1, Switch: "sw-x", Port: 1})
	_ = db.AddAdapter(configdb.AdapterSpec{IP: ip(1, 2), Node: "nb", Index: 0, VLAN: 1, Switch: "sw-x", Port: 2})
	_ = db.AddAdapter(configdb.AdapterSpec{IP: ip(1, 3), Node: "nc", Index: 0, VLAN: 1, Switch: "sw-y", Port: 1})
	f := newFixture(t, db)
	f.full(ip(1, 3), 1,
		wire.Member{IP: ip(1, 3), Node: "nc", Admin: true},
		wire.Member{IP: ip(1, 2), Node: "nb", Admin: true},
		wire.Member{IP: ip(1, 1), Node: "na", Admin: true})
	f.report(&wire.Report{Leader: ip(1, 3), Version: 2, Left: []transport.IP{ip(1, 1), ip(1, 2)}})
	sf := f.bus.Filter(event.SwitchFailed)
	if len(sf) != 1 || sf[0].Node != "sw-x" {
		t.Fatalf("SwitchFailed = %v", sf)
	}
	// One adapter returns: switch recovered.
	f.report(&wire.Report{Leader: ip(1, 3), Version: 3,
		Members: []wire.Member{{IP: ip(1, 1), Node: "na", Admin: true}}})
	if f.bus.Count(event.SwitchRecovered) != 1 {
		t.Fatal("no SwitchRecovered")
	}
}

func TestExpectedMoveSuppression(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "n5", true), member(1, 4, "mover", true))
	f.full(ip(2, 5), 1, wire.Member{IP: ip(2, 5), Node: "x"})
	// Register the expectation as MoveAdapter would.
	f.expectMove(ip(1, 4), f.sched.Now()+f.c.cfg.MoveWindow)
	f.report(&wire.Report{Leader: ip(1, 5), Version: 2, Left: []transport.IP{ip(1, 4)}})
	fails := f.bus.Filter(event.AdapterFailed)
	if len(fails) != 1 || !fails[0].Suppressed {
		t.Fatalf("expected suppressed failure, got %v", fails)
	}
	// Join on the new segment completes the move.
	f.report(&wire.Report{Leader: ip(2, 5), Version: 2,
		Members: []wire.Member{member(1, 4, "mover", true)}})
	moves := f.bus.Filter(event.NodeMoved)
	if len(moves) != 1 || moves[0].Detail != "expected (central-initiated)" {
		t.Fatalf("moves = %v", moves)
	}
	if _, still := f.c.st.ExpectedMoves[ip(1, 4)]; still {
		t.Fatal("expectation not cleared")
	}
}

func TestUnexpectedMoveInference(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "n5", true), member(1, 4, "mover", true))
	f.full(ip(2, 5), 1, wire.Member{IP: ip(2, 5), Node: "x"})
	f.report(&wire.Report{Leader: ip(1, 5), Version: 2, Left: []transport.IP{ip(1, 4)}})
	fails := f.bus.Filter(event.AdapterFailed)
	if len(fails) != 1 || fails[0].Suppressed {
		t.Fatalf("unexpected move's failure must not be suppressed: %v", fails)
	}
	f.sched.RunFor(10 * time.Second) // still inside MoveWindow
	f.report(&wire.Report{Leader: ip(2, 5), Version: 2,
		Members: []wire.Member{member(1, 4, "mover", true)}})
	moves := f.bus.Filter(event.NodeMoved)
	if len(moves) != 1 || moves[0].Detail != "UNEXPECTED" {
		t.Fatalf("moves = %v", moves)
	}
	if f.bus.Count(event.VerifyMismatch) == 0 {
		t.Fatal("unplanned move not flagged")
	}
}

func TestRejoinOutsideWindowIsRecovery(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "n5", true), member(1, 4, "n4", true))
	f.report(&wire.Report{Leader: ip(1, 5), Version: 2, Left: []transport.IP{ip(1, 4)}})
	f.sched.RunFor(f.c.cfg.MoveWindow + time.Second)
	f.report(&wire.Report{Leader: ip(1, 5), Version: 3,
		Members: []wire.Member{member(1, 4, "n4", true)}})
	if f.bus.Count(event.NodeMoved) != 0 {
		t.Fatal("late rejoin misread as a move")
	}
	if f.bus.Count(event.AdapterRecovered) != 1 {
		t.Fatal("no AdapterRecovered")
	}
}

func TestSameGroupRejoinIsRecoveryNotMove(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "n5", true), member(1, 4, "n4", true))
	f.report(&wire.Report{Leader: ip(1, 5), Version: 2, Left: []transport.IP{ip(1, 4)}})
	f.report(&wire.Report{Leader: ip(1, 5), Version: 3,
		Members: []wire.Member{member(1, 4, "n4", true)}})
	if f.bus.Count(event.NodeMoved) != 0 {
		t.Fatal("same-group rejoin misread as a move")
	}
	if f.bus.Count(event.AdapterRecovered) != 1 {
		t.Fatal("no AdapterRecovered")
	}
}

func TestStability(t *testing.T) {
	f := newFixture(t, nil)
	if f.c.Stable() {
		t.Fatal("stable with empty view")
	}
	f.full(ip(1, 5), 1, member(1, 5, "n5", true))
	if f.c.Stable() {
		t.Fatal("stable immediately after change")
	}
	f.sched.RunFor(6 * time.Second)
	if !f.c.Stable() {
		t.Fatal("not stable after quiet Tgsc")
	}
	want := f.c.StableAt()
	if want >= 6*time.Second || want < 5*time.Second {
		t.Fatalf("StableAt = %v", want)
	}
	// Any change resets stability.
	f.report(&wire.Report{Leader: ip(1, 5), Version: 2,
		Members: []wire.Member{member(1, 4, "n4", true)}})
	if f.c.Stable() {
		t.Fatal("stable right after delta")
	}
}

func TestDeactivateStopsProcessing(t *testing.T) {
	f := newFixture(t, nil)
	f.c.Deactivate()
	f.full(ip(1, 5), 1, member(1, 5, "n5", true))
	if len(f.c.Groups()) != 0 {
		t.Fatal("inactive central applied a report")
	}
	if f.c.Active() {
		t.Fatal("still active")
	}
}

func TestMoveAdapterErrors(t *testing.T) {
	f := newFixture(t, nil) // no db
	gotErr := make(chan error, 1)
	f.c.MoveAdapter(ip(1, 1), 100, func(err error) { gotErr <- err })
	select {
	case err := <-gotErr:
		if err == nil {
			t.Fatal("MoveAdapter without db succeeded")
		}
	default:
		t.Fatal("no callback")
	}
}

func TestVerifyInactive(t *testing.T) {
	db := configdb.New()
	f := newFixture(t, db)
	f.c.Deactivate()
	if ms := f.c.Verify(); ms != nil {
		t.Fatal("inactive verify returned findings")
	}
}
