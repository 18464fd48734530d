package core

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Edge-case coverage for the membership machinery: stale 2PC traffic,
// aborts, concurrent changes, refresh rate limiting, eviction handling.

// A PrepareAck with a stale token must not disturb an in-flight round.
func TestStalePrepareAckIgnored(t *testing.T) {
	h := newHarness(t, 41)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 4)
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	var leader *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[leaderIP]; ok {
			leader = p
		}
	}
	// Inject a bogus ack: no round in flight, random token.
	leader.lead.onPrepareAck(&wire.PrepareAck{
		From: ipn(0, 1), Leader: leaderIP, Version: 99, Token: 0xabcdef, OK: true,
	})
	h.run(5 * time.Second)
	h.assertOneGroup(ips) // nothing broke
}

// An Abort for an unknown token must be harmless; an Abort matching a
// pending view must clear it.
func TestAbortClearsPending(t *testing.T) {
	h := newHarness(t, 42)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 3)
	h.run(8 * time.Second)
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	// Forge a pending view as if a Prepare had arrived.
	fake := &wire.Prepare{
		Leader:  ipn(0, 99), // higher than everyone: acceptable preparer
		Version: member.view.Version + 1,
		Token:   777,
		Op:      wire.OpJoin,
		Members: append([]wire.Member{{IP: ipn(0, 99), Node: "x"}}, member.view.Members...),
	}
	member.onPrepare(fake)
	if member.pending == nil {
		t.Fatal("prepare did not pend")
	}
	// Mismatched abort: stays pending.
	member.onAbort(&wire.Abort{Leader: ipn(0, 99), Version: fake.Version, Token: 778})
	if member.pending == nil {
		t.Fatal("mismatched abort cleared pending")
	}
	member.onAbort(&wire.Abort{Leader: ipn(0, 99), Version: fake.Version, Token: 777})
	if member.pending != nil {
		t.Fatal("matching abort did not clear pending")
	}
	h.run(5 * time.Second)
	h.assertOneGroup(ips)
}

// A pending view expires if the commit never arrives.
func TestPendingViewExpires(t *testing.T) {
	h := newHarness(t, 43)
	cfg := fastConfig()
	cfg.PendingTimeout = 2 * time.Second
	ips := h.singleSegment(cfg, 3)
	h.run(8 * time.Second)
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	member.onPrepare(&wire.Prepare{
		Leader: ipn(0, 99), Version: member.view.Version + 1, Token: 9,
		Op:      wire.OpJoin,
		Members: append([]wire.Member{{IP: ipn(0, 99), Node: "x"}}, member.view.Members...),
	})
	if member.pending == nil {
		t.Fatal("no pending view")
	}
	h.run(3 * time.Second)
	if member.pending != nil {
		t.Fatal("pending view survived its timeout")
	}
	h.assertOneGroup(ips)
}

// A vote ends with the lineage it was cast in: a member that acked a
// higher leader's Prepare and is then orphaned by its own leader's Evict
// holds no vote, so the round's Commit cannot install through it. A Commit
// that names only the round installs nothing; the Commit the leader really
// sends carries the membership and may fold the orphan in, but only as a
// "direct" install, the merge path that needs no vote.
func TestOrphanDropsVote(t *testing.T) {
	h := newHarness(t, 47)
	ips := h.singleSegment(fastConfig(), 3)
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	rec := trace.New(256)
	member.d.SetTracer(rec)
	higher := ipn(0, 99)
	prep := &wire.Prepare{
		Leader: higher, Version: member.view.Version + 1, Token: 777, Op: wire.OpJoin,
		Members: append([]wire.Member{{IP: higher, Node: "x"}}, member.view.Members...),
	}
	member.onPrepare(prep)
	if member.pending == nil {
		t.Fatal("prepare did not pend")
	}
	member.onEvict(&wire.Evict{Leader: leaderIP, Target: member.self})
	if member.pending != nil {
		t.Fatal("orphaned adapter kept its vote")
	}
	member.onCommit(&wire.Commit{Leader: higher, Version: prep.Version, Token: prep.Token})
	if n := countKind(rec.Snapshot(), trace.KCommitRecv); n != 0 || member.view.Leader() != member.self {
		t.Fatalf("commit of a dropped vote installed: %d commit records, view %v", n, member.view)
	}
	member.onCommit(&wire.Commit{Leader: higher, Version: prep.Version, Token: prep.Token, Members: prep.Members})
	for _, r := range rec.Snapshot() {
		if r.Kind == trace.KCommitRecv && r.Detail != "direct" {
			t.Fatalf("commit installed through a dropped vote: %v", r)
		}
	}
}

// A Prepare that does not include the recipient must be NACKed.
func TestPrepareWithoutSelfRejected(t *testing.T) {
	h := newHarness(t, 44)
	cfg := fastConfig()
	h.singleSegment(cfg, 3)
	h.run(8 * time.Second)
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	member.onPrepare(&wire.Prepare{
		Leader: ipn(0, 99), Version: 100, Token: 5, Op: wire.OpForm,
		Members: []wire.Member{{IP: ipn(0, 99)}, {IP: ipn(0, 50)}},
	})
	if member.pending != nil {
		t.Fatal("member pended a view that excludes it")
	}
}

// Evict from an unrelated low-IP stranger must be ignored; evict from the
// recorded leader must orphan.
func TestEvictAuthorityRules(t *testing.T) {
	h := newHarness(t, 45)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 4)
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	// A random low stranger: ignored.
	member.onEvict(&wire.Evict{Leader: transport.MakeIP(9, 9, 9, 9) & 0x0fffffff, Target: member.self})
	if member.state != stMember {
		t.Fatal("stranger evicted a member")
	}
	// Wrong target: ignored.
	member.onEvict(&wire.Evict{Leader: leaderIP, Target: ipn(0, 2)})
	if member.state != stMember {
		t.Fatal("mis-addressed evict acted")
	}
	// The real leader: orphan and rediscover.
	member.onEvict(&wire.Evict{Leader: leaderIP, Target: member.self})
	if member.state != stLeader || member.view.Size() != 1 {
		t.Fatalf("evicted member state=%v view=%v", member.state, member.view)
	}
	// It reforms into the group shortly.
	h.run(15 * time.Second)
	h.assertOneGroup(ips)
}

// refreshMember is rate-limited: a burst of stale heartbeats triggers at
// most one refresh per second per member.
func TestRefreshRateLimited(t *testing.T) {
	h := newHarness(t, 46)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 3)
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	var leader *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[leaderIP]; ok {
			leader = p
		}
	}
	sent := 0
	h.net.Tap(func(tr netsim.Trace) {
		if tr.Src == leaderIP && tr.Dst.Port == transport.PortMember {
			sent++
		}
	})
	for i := 0; i < 10; i++ {
		leader.lead.refreshMember(ipn(0, 1))
	}
	if sent != 1 {
		t.Fatalf("refresh burst sent %d commits, want 1", sent)
	}
	h.run(1100 * time.Millisecond)
	leader.lead.refreshMember(ipn(0, 1))
	if sent != 2 {
		t.Fatalf("refresh after interval sent %d total, want 2", sent)
	}
}

// Joins arriving while a 2PC is in flight are batched into the next round
// rather than lost.
func TestJoinDuringInflight2PC(t *testing.T) {
	h := newHarness(t, 47)
	cfg := fastConfig()
	cfg.JoinBatchDelay = 100 * time.Millisecond
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	// Two late joiners in quick succession.
	a, b := ipn(0, 30), ipn(0, 31)
	h.addNode(cfg, "late-a", []transport.IP{a}, []string{"admin"})
	h.addNode(cfg, "late-b", []transport.IP{b}, []string{"admin"})
	h.daemons["late-a"].Start()
	h.run(300 * time.Millisecond)
	h.daemons["late-b"].Start()
	h.run(20 * time.Second)
	h.assertOneGroup(append(append([]transport.IP{}, ips...), a, b))
}

// Beacons from our own node (another adapter of the same daemon) are not
// special-cased: adapters are independent, per the paper's adapter-centric
// design. A daemon with two adapters on the SAME segment forms/joins one
// group containing both.
func TestTwoAdaptersSameNodeSameSegment(t *testing.T) {
	h := newHarness(t, 48)
	cfg := fastConfig()
	d := h.addNode(cfg, "dual", []transport.IP{ipn(0, 1), ipn(0, 2)}, []string{"admin", "admin"})
	other := h.addNode(cfg, "other", []transport.IP{ipn(0, 3)}, []string{"admin"})
	d.Start()
	other.Start()
	h.run(10 * time.Second)
	h.assertOneGroup([]transport.IP{ipn(0, 1), ipn(0, 2), ipn(0, 3)})
}

// Crash mid-2PC: the leader dies between Prepare and Commit; pending
// views expire and the group re-forms under the successor.
func TestLeaderCrashMidCommit(t *testing.T) {
	h := newHarness(t, 49)
	cfg := fastConfig()
	cfg.PendingTimeout = 2 * time.Second
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	view := h.viewOf(ips[0])
	leaderIP := view.Leader()
	// Trigger a join (new member) and crash the leader just after the
	// Prepares go out but before acks can round-trip.
	late := ipn(0, 40)
	h.addNode(cfg, "late", []transport.IP{late}, []string{"admin"})
	h.daemons["late"].Start()
	// Let the join request land and the 2PC start...
	h.run(cfg.BeaconPhase + cfg.JoinBatchDelay + 50*time.Millisecond)
	for _, d := range h.daemons {
		if d.AdminIP() == leaderIP {
			d.Crash()
			h.eps[leaderIP].SetMode(netsim.FailStop)
		}
	}
	h.run(40 * time.Second)
	var want []transport.IP
	for _, ip := range ips {
		if ip != leaderIP {
			want = append(want, ip)
		}
	}
	want = append(want, late)
	h.assertOneGroup(want)
}
