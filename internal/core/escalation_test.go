package core

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Two ring-adjacent members move segments together: they keep heartbeating
// each other, so the total-silence orphan path never fires. The §3.1
// escalation (probe leader, probe successor, conclude we moved) must kick
// in and both must end up in the new segment's group.
func TestAdjacentPairMoveEscalates(t *testing.T) {
	h := newHarness(t, 31)
	cfg := fastConfig()
	cfg.EscalationPatience = 3 * time.Second
	var segA, segB []transport.IP
	for i := 1; i <= 6; i++ {
		ip := ipn(1, byte(i))
		h.addNode(cfg, nodeName("a", i), []transport.IP{ip}, []string{"seg-a"})
		segA = append(segA, ip)
	}
	for i := 1; i <= 3; i++ {
		ip := ipn(2, byte(i))
		h.addNode(cfg, nodeName("b", i), []transport.IP{ip}, []string{"seg-b"})
		segB = append(segB, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(10 * time.Second)
	h.assertOneGroup(segA)
	h.assertOneGroup(segB)

	// Move ring-adjacent members 10.0.1.3 and 10.0.1.4 together.
	movers := []transport.IP{ipn(1, 3), ipn(1, 4)}
	for _, ip := range movers {
		h.res.Attach(ip, "seg-b")
	}
	h.run(45 * time.Second)

	var restA []transport.IP
	for _, ip := range segA {
		if ip != movers[0] && ip != movers[1] {
			restA = append(restA, ip)
		}
	}
	h.assertOneGroup(restA)
	h.assertOneGroup(append(append([]transport.IP{}, segB...), movers...))
}

// A group's LEADER moves segments: the isolation guard must stop it from
// declaring its whole group dead; it reforms as a fresh singleton, and
// the old group's successor takes over.
func TestMovedLeaderDoesNotMassKill(t *testing.T) {
	h := newHarness(t, 32)
	cfg := fastConfig()
	cfg.EscalationPatience = 3 * time.Second
	var segA, segB []transport.IP
	for i := 1; i <= 5; i++ {
		ip := ipn(1, byte(i))
		h.addNode(cfg, nodeName("a", i), []transport.IP{ip}, []string{"seg-a"})
		segA = append(segA, ip)
	}
	for i := 1; i <= 3; i++ {
		ip := ipn(2, byte(i))
		h.addNode(cfg, nodeName("b", i), []transport.IP{ip}, []string{"seg-b"})
		segB = append(segB, ip)
	}
	recs := h.traceKinds(trace.KDeathCommitted)
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(10 * time.Second)
	leader := h.viewOf(segA[0]).Leader() // 10.0.1.5
	if leader != ipn(1, 5) {
		t.Fatalf("unexpected initial leader %v", leader)
	}
	// Move the leader to seg-b.
	h.res.Attach(leader, "seg-b")
	h.run(45 * time.Second)

	// Survivors recommitted under the old successor.
	var restA []transport.IP
	for _, ip := range segA {
		if ip != leader {
			restA = append(restA, ip)
		}
	}
	h.assertOneGroup(restA)
	// The moved leader joined seg-b's group.
	h.assertOneGroup(append(append([]transport.IP{}, segB...), leader))
	// The isolation guard: the moved leader must not have declared the
	// (alive) survivors dead. The survivors legitimately declare the
	// *leader* dead during takeover.
	deaths := deathsOf(*recs)
	for _, d := range deaths {
		if d != leader {
			t.Fatalf("moved leader mass-killed healthy member %v (deaths: %v)", d, deaths)
		}
	}
}

// A leader that genuinely loses every member to a real crash must not
// leak death reports it cannot verify: it reforms fresh, and the central
// hook shows the lineage break.
func TestLeaderSurvivesMassDeath(t *testing.T) {
	h := newHarness(t, 33)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	leader := h.viewOf(ips[0]).Leader()
	// Kill everyone except the leader, at once.
	for name, d := range h.daemons {
		if d.AdminIP() != leader {
			d.Crash()
			h.eps[d.AdminIP()].SetMode(1 /* netsim.FailStop */)
			_ = name
		}
	}
	h.run(30 * time.Second)
	v := h.viewOf(leader)
	if v.Size() != 1 || v.Leader() != leader {
		t.Fatalf("leader did not reform singleton: %v", v)
	}
}

// Escalation against a live leader must not destroy the group: a member
// with a stuck suspicion probes the leader, finds it alive, and stays.
func TestEscalationAgainstLiveLeaderHarmless(t *testing.T) {
	h := newHarness(t, 34)
	cfg := fastConfig()
	cfg.EscalationPatience = 2 * time.Second
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	// Inject a bogus suspicion state directly: member 10.0.0.2 thinks it
	// reported something and nothing happened.
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 2)]; ok {
			member = p
		}
	}
	if member == nil || member.state != stMember {
		t.Fatal("fixture: 10.0.0.2 is not a member")
	}
	member.firstSuspicionAt = h.sched.Now()
	h.run(20 * time.Second)
	h.assertOneGroup(ips)
}

// Suspect messages carry versions; a leader receiving a heartbeat tagged
// with a stale version refreshes the member (lost-commit healing).
func TestStaleMemberRefreshedByLeader(t *testing.T) {
	h := newHarness(t, 35)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 4)
	h.run(8 * time.Second)
	// Bump the committed version past 1 (version 0 on the wire means
	// "unknown") by adding a late joiner.
	h.addNode(cfg, "late", []transport.IP{ipn(0, 40)}, []string{"admin"})
	h.daemons["late"].Start()
	h.run(10 * time.Second)
	ips = append(ips, ipn(0, 40))
	h.assertOneGroup(ips)
	leaderIP := h.viewOf(ips[0]).Leader()
	var leaderProto, memberProto *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[leaderIP]; ok {
			leaderProto = p
		}
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			memberProto = p
		}
	}
	// Forge a stale view on the member: wind its version back, detector
	// included (heartbeats advertise the detector's view version).
	old := memberProto.view
	stale := old
	stale.Version = old.Version - 1
	memberProto.view = stale
	memberProto.detector.Reconfigure(stale)
	// Its next heartbeats carry the stale version; the leader must push a
	// refresh Commit that restores the current view.
	h.run(10 * time.Second)
	if memberProto.view.Version != leaderProto.view.Version {
		t.Fatalf("stale member not refreshed: v%d vs leader v%d",
			memberProto.view.Version, leaderProto.view.Version)
	}
}

func nodeName(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i))
}

// Sanity: escalation fields reset on commit.
func TestSuspicionClockResetOnCommit(t *testing.T) {
	h := newHarness(t, 36)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 4)
	h.run(8 * time.Second)
	var member *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[ipn(0, 1)]; ok {
			member = p
		}
	}
	member.firstSuspicionAt = h.sched.Now()
	// Force a commit by having a new node join.
	h.addNode(cfg, "late", []transport.IP{ipn(0, 99)}, []string{"admin"})
	h.daemons["late"].Start()
	h.run(15 * time.Second)
	if member.firstSuspicionAt != 0 {
		t.Fatal("suspicion clock survived a commit")
	}
	h.assertOneGroup(append(append([]transport.IP{}, ips...), ipn(0, 99)))
}

// A death the leader verified but could not commit is retracted with its
// round: when every other member is silent, the isolation guard abandons
// the lineage instead of committing the removal, and the trace shows the
// verdict and the orphaning but no committed death.
func TestIsolationAbortTracesNoDeath(t *testing.T) {
	h := newHarness(t, 33)
	ips := h.singleSegment(fastConfig(), 5)
	h.run(8 * time.Second)
	leader := h.viewOf(ips[0]).Leader()
	recs := h.traceKinds(trace.KVerdictDead, trace.KOrphaned, trace.KDeathCommitted)
	for _, d := range h.daemons {
		if d.AdminIP() != leader {
			d.Crash()
			h.eps[d.AdminIP()].SetMode(netsim.FailStop)
		}
	}
	h.run(30 * time.Second)
	var verdicts, orphaned int
	for _, r := range *recs {
		switch {
		case r.Self != leader:
		case r.Kind == trace.KVerdictDead:
			verdicts++
		case r.Kind == trace.KOrphaned:
			orphaned++
		}
	}
	if verdicts == 0 || orphaned == 0 {
		t.Fatalf("fixture: leader %v traced %d dead verdicts and %d orphanings, want both", leader, verdicts, orphaned)
	}
	if deaths := deathsOf(*recs); len(deaths) != 0 {
		t.Fatalf("an aborted round traced committed deaths %v", deaths)
	}
}
