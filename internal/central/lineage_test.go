package central

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The moved-leader lineage collision: a group's leader is re-VLANed, its
// old group's successor takes over, and meanwhile the moved leader starts
// a NEW group (same leader address!) on its new segment. The successor's
// takeover report must supersede the OLD lineage only — the version guard
// keeps it from deleting the moved leader's new group.
func TestTakeoverDoesNotDeleteNewLineage(t *testing.T) {
	f := newFixture(t, nil)
	// Old group on segment A, led by 10.0.1.5.
	f.full(ip(1, 5), 3,
		member(1, 5, "n5", true), member(1, 4, "n4", true), member(1, 3, "n3", true))
	// Segment B group.
	f.full(ip(2, 9), 1, wire.Member{IP: ip(2, 9), Node: "n9"})

	// The moved leader reforms fresh on segment B (version jumped) and
	// absorbs segment B's group.
	f.report(&wire.Report{
		Leader: ip(1, 5), Version: 1003, Full: true, Fresh: true,
		Members: []wire.Member{member(1, 5, "n5", true), {IP: ip(2, 9), Node: "n9"}},
	})
	// Old-group survivors under the successor; it supersedes lineage v3.
	f.report(&wire.Report{
		Leader: ip(1, 4), Version: 4, Full: true, PrevLeader: ip(1, 5), PrevVersion: 3,
		Members: []wire.Member{member(1, 4, "n4", true), member(1, 3, "n3", true)},
	})

	groups := f.c.Groups()
	if len(groups[ip(1, 5)]) != 2 {
		t.Fatalf("moved leader's new group damaged: %v", groups)
	}
	if len(groups[ip(1, 4)]) != 2 {
		t.Fatalf("successor group wrong: %v", groups)
	}
	// Nobody actually died.
	for _, a := range []transport.IP{ip(1, 5), ip(1, 4), ip(1, 3), ip(2, 9)} {
		if alive, known := f.c.AdapterAlive(a); !known || !alive {
			t.Fatalf("adapter %v wrongly dead", a)
		}
	}
	if n := f.bus.Count(event.AdapterFailed); n != 0 {
		t.Fatalf("%d false failures: %v", n, f.bus.Filter(event.AdapterFailed))
	}
}

// Fresh reports put displaced members into limbo; if they never resurface
// the sweep declares them failed after the move window.
func TestFreshLimboExpiry(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1,
		member(1, 5, "n5", true), member(1, 4, "n4", true), member(1, 3, "n3", true))
	// Same-key fresh singleton: n4 and n3 displaced into limbo.
	f.report(&wire.Report{
		Leader: ip(1, 5), Version: 1001, Full: true, Fresh: true,
		Members: []wire.Member{member(1, 5, "n5", true)},
	})
	if n := f.bus.Count(event.AdapterFailed); n != 0 {
		t.Fatalf("limbo members declared dead immediately: %v", f.bus.Filter(event.AdapterFailed))
	}
	// n4 resurfaces in another group within the window: fine.
	f.full(ip(2, 9), 1, wire.Member{IP: ip(2, 9), Node: "n9"}, member(1, 4, "n4", true))
	// n3 never resurfaces: the sweep declares it failed.
	f.sched.RunFor(f.c.cfg.MoveWindow + 10*time.Second)
	fails := f.bus.Filter(event.AdapterFailed)
	if len(fails) != 1 || fails[0].Adapter != ip(1, 3) {
		t.Fatalf("limbo expiry failures = %v", fails)
	}
	if alive, _ := f.c.AdapterAlive(ip(1, 4)); !alive {
		t.Fatal("resurfaced member wrongly dead")
	}
}

// An expected move completes even when the mover never appears dead (it
// led its old group and regrouped silently).
func TestExpectedMoveCompletesOnSilentRegroup(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 1, member(1, 5, "mover", true), member(1, 4, "n4", true))
	f.full(ip(2, 9), 1, wire.Member{IP: ip(2, 9), Node: "n9"})
	f.expectMove(ip(1, 5), f.sched.Now()+f.c.cfg.MoveWindow)
	// The mover joins segment B's group without ever being reported dead.
	f.report(&wire.Report{Leader: ip(2, 9), Version: 2,
		Members: []wire.Member{member(1, 5, "mover", true)}})
	moves := f.bus.Filter(event.NodeMoved)
	if len(moves) != 1 || moves[0].Detail != "expected (central-initiated)" {
		t.Fatalf("moves = %v", moves)
	}
	if _, still := f.c.st.ExpectedMoves[ip(1, 5)]; still {
		t.Fatal("expectation not cleared")
	}
	// The sweep must not later complain the move never completed.
	f.sched.RunFor(f.c.cfg.MoveWindow + 10*time.Second)
	for _, e := range f.bus.Filter(event.VerifyMismatch) {
		if e.Detail == "planned move never completed" {
			t.Fatal("completed move flagged as incomplete")
		}
	}
}

// Stale takeover references (PrevVersion older than what Central has)
// are ignored entirely.
func TestStaleTakeoverIgnored(t *testing.T) {
	f := newFixture(t, nil)
	f.full(ip(1, 5), 10, member(1, 5, "n5", true), member(1, 4, "n4", true))
	f.report(&wire.Report{
		Leader: ip(1, 4), Version: 3, Full: true, PrevLeader: ip(1, 5), PrevVersion: 2,
		Members: []wire.Member{member(1, 4, "n4", true)},
	})
	// Group v10 under 10.0.1.5 must survive; n5 stays alive.
	if alive, _ := f.c.AdapterAlive(ip(1, 5)); !alive {
		t.Fatal("stale takeover killed the leader")
	}
	if len(f.c.Groups()[ip(1, 5)]) == 0 {
		t.Fatal("stale takeover deleted the current lineage")
	}
}
