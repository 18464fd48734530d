package check

import (
	"strings"
	"testing"
	"time"

	"repro/internal/amg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stubContext serves canned views to the checkers.
type stubContext struct {
	views map[transport.IP]amg.Membership
	drift map[string]string
}

func (s *stubContext) ViewOf(ip transport.IP) (amg.Membership, bool) {
	v, ok := s.views[ip]
	return v, ok
}
func (s *stubContext) SegmentOf(ip transport.IP) (string, bool) { return "vlan-1", true }
func (s *stubContext) JournalDrift(node string) string          { return s.drift[node] }

func mkView(version uint64, ips ...transport.IP) amg.Membership {
	var ms []wire.Member
	for _, ip := range ips {
		ms = append(ms, wire.Member{IP: ip})
	}
	v := amg.New(version, ms)
	v.Version = version
	return v
}

func ip(s string) transport.IP {
	v, ok := transport.ParseIP(s)
	if !ok {
		panic("bad ip " + s)
	}
	return v
}

func commit(ctx *stubContext, self transport.IP, v amg.Membership) trace.Record {
	ctx.views[self] = v
	return trace.Record{Kind: trace.KViewCommit, Self: self,
		Group: v.Leader(), Version: v.Version, Count: uint32(v.Size())}
}

func TestMonotoneVersionsFlagsRegression(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewMonotoneVersions())
	l, m := ip("10.0.0.9"), ip("10.0.0.5")

	e.Observe(commit(ctx, m, mkView(5, l, m)))
	e.Observe(commit(ctx, m, mkView(4, l, m))) // regression within lineage l
	if len(e.Violations()) != 1 {
		t.Fatalf("want 1 violation, got %v", e.Violations())
	}

	// A restart ends the lineage: the same lineage may then come back at a
	// lower version without a violation.
	e2 := NewEngine(ctx, NewMonotoneVersions())
	e2.Observe(commit(ctx, m, mkView(5, l, m)))
	e2.Observe(trace.Record{Kind: trace.KStarted, Self: m, Token: 2})
	e2.Observe(commit(ctx, m, mkView(4, l, m)))
	if !e2.Ok() {
		t.Fatalf("reset lineage flagged: %v", e2.Violations())
	}
}

func TestSingleIncarnationFlagsDivergentViews(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewSingleIncarnation())
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")

	e.Observe(commit(ctx, l, mkView(3, l, a, b)))
	e.Observe(commit(ctx, a, mkView(3, l, a, b))) // same incarnation, same members: fine
	if !e.Ok() {
		t.Fatalf("consistent incarnation flagged: %v", e.Violations())
	}
	e.Observe(commit(ctx, b, mkView(3, l, b))) // same (l,3), different membership
	if len(e.Violations()) != 1 {
		t.Fatalf("want 1 violation, got %v", e.Violations())
	}
}

func TestTwoPCFlagsDoubleCommitAndUnpreparedInstall(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewTwoPC())
	l, m := ip("10.0.0.9"), ip("10.0.0.5")

	e.Observe(trace.Record{Kind: trace.KPrepareRecv, Self: m, Group: l, Token: 7})
	e.Observe(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 7})
	e.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 7})
	if !e.Ok() {
		t.Fatalf("clean round flagged: %v", e.Violations())
	}
	e.Observe(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 7})
	if len(e.Violations()) != 1 || !strings.Contains(e.Violations()[0].Msg, "twice") {
		t.Fatalf("double commit not flagged: %v", e.Violations())
	}

	e2 := NewEngine(ctx, NewTwoPC())
	e2.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 9})
	if len(e2.Violations()) != 1 || !strings.Contains(e2.Violations()[0].Msg, "without a matching prepare") {
		t.Fatalf("unprepared install not flagged: %v", e2.Violations())
	}
	// "direct" installs (leader refresh / merge fold-in) are exempt.
	e3 := NewEngine(ctx, NewTwoPC())
	e3.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 9, Detail: "direct"})
	if !e3.Ok() {
		t.Fatalf("direct install flagged: %v", e3.Violations())
	}
}

// A restarted adapter keeps beaconing ungrouped while it votes; only its
// KStarted ends a lineage, so a beacon between prepare and commit is not a
// reset, while a restart between them voids the vote.
func TestTwoPCResetIsStartNotBeacon(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	l, m := ip("10.0.0.9"), ip("10.0.0.5")
	started := trace.Record{Kind: trace.KStarted, Self: m, Token: 2}
	beacon := trace.Record{Kind: trace.KBeaconSent, Self: m} // Group 0: ungrouped
	prepare := trace.Record{Kind: trace.KPrepareRecv, Self: m, Group: l, Token: 7}
	install := trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 7}

	e := NewEngine(ctx, NewTwoPC())
	for _, rec := range []trace.Record{started, beacon, prepare, beacon, install} {
		e.Observe(rec)
	}
	if !e.Ok() {
		t.Fatalf("beacon between prepare and commit read as a reset: %v", e.Violations())
	}

	e2 := NewEngine(ctx, NewTwoPC())
	for _, rec := range []trace.Record{started, beacon, prepare, started, install} {
		e2.Observe(rec)
	}
	if len(e2.Violations()) != 1 || !strings.Contains(e2.Violations()[0].Msg, "without a matching prepare") {
		t.Fatalf("install of a vote cast before a restart not flagged: %v", e2.Violations())
	}
}

func TestEvictionEvidence(t *testing.T) {
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}

	// Unverified drop: leader commits without verdict or retarget.
	e := NewEngine(ctx, NewEvictionEvidence())
	e.Observe(commit(ctx, l, mkView(1, l, a, b)))
	e.Observe(commit(ctx, l, mkView(2, l, a)))
	if len(e.Violations()) != 1 {
		t.Fatalf("unverified eviction not flagged: %v", e.Violations())
	}

	// Verdict-dead justifies the drop, and is consumed by it.
	e2 := NewEngine(ctx, NewEvictionEvidence())
	e2.Observe(commit(ctx, l, mkView(1, l, a, b)))
	e2.Observe(trace.Record{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1})
	e2.Observe(commit(ctx, l, mkView(2, l, a)))
	if !e2.Ok() {
		t.Fatalf("verified eviction flagged: %v", e2.Violations())
	}
	e2.Observe(commit(ctx, l, mkView(3, l, a, b)))
	e2.Observe(commit(ctx, l, mkView(4, l, a))) // evidence was consumed: must re-verify
	if len(e2.Violations()) != 1 {
		t.Fatalf("evidence not consumed: %v", e2.Violations())
	}

	// A retarget since the previous commit blankets non-responder drops.
	e3 := NewEngine(ctx, NewEvictionEvidence())
	e3.Observe(commit(ctx, l, mkView(1, l, a, b)))
	e3.Observe(trace.Record{Kind: trace.KRetarget, Self: l, Group: l, Token: 5})
	e3.Observe(commit(ctx, l, mkView(2, l, a)))
	if !e3.Ok() {
		t.Fatalf("retargeted drop flagged: %v", e3.Violations())
	}

	// False accusation voids the alive-verdict evidence.
	e4 := NewEngine(ctx, NewEvictionEvidence())
	e4.Observe(commit(ctx, l, mkView(1, l, a, b)))
	e4.Observe(trace.Record{Kind: trace.KVerdictAlive, Self: l, Peer: b, Token: 2})
	e4.Observe(trace.Record{Kind: trace.KFalseAccusation, Self: l, Peer: b})
	e4.Observe(commit(ctx, l, mkView(2, l, a)))
	if len(e4.Violations()) != 1 {
		t.Fatalf("drop after false accusation not flagged: %v", e4.Violations())
	}
}

func TestVerdictRequiresProbe(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewVerdictRequiresProbe())
	l, m := ip("10.0.0.9"), ip("10.0.0.5")

	e.Observe(trace.Record{Kind: trace.KProbeSent, Self: l, Peer: m, Token: 3})
	e.Observe(trace.Record{Kind: trace.KVerdictDead, Self: l, Peer: m, Token: 3})
	if !e.Ok() {
		t.Fatalf("probed verdict flagged: %v", e.Violations())
	}
	e.Observe(trace.Record{Kind: trace.KVerdictDead, Self: l, Peer: m, Token: 4})
	if len(e.Violations()) != 1 {
		t.Fatalf("probe-less verdict not flagged: %v", e.Violations())
	}
}

func TestSuspicionEvidenceWhitelist(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewSuspicionEvidence())
	e.Observe(trace.Record{Kind: trace.KSuspicionRaised, Self: ip("10.0.0.5"),
		Peer: ip("10.0.0.6"), Detail: wire.ReasonMissedHeartbeats.String()})
	if !e.Ok() {
		t.Fatalf("detector-reason suspicion flagged: %v", e.Violations())
	}
	e.Observe(trace.Record{Kind: trace.KSuspicionRaised, Self: ip("10.0.0.5"),
		Peer: ip("10.0.0.6"), Detail: "gut-feeling"})
	if len(e.Violations()) != 1 {
		t.Fatalf("fabricated suspicion not flagged: %v", e.Violations())
	}
}

func TestNoDeadInView(t *testing.T) {
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewNoDeadInView())

	e.Observe(commit(ctx, l, mkView(1, l, a, b)))
	e.Observe(trace.Record{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1})
	e.Observe(commit(ctx, l, mkView(2, l, a, b))) // still contains the declared-dead b
	if len(e.Violations()) != 1 {
		t.Fatalf("dead member in committed view not flagged: %v", e.Violations())
	}

	// A prepare-ack from the member clears the mark (it is back).
	e2 := NewEngine(ctx, NewNoDeadInView())
	e2.Observe(trace.Record{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1})
	e2.Observe(trace.Record{Kind: trace.KPrepareAck, Self: l, Peer: b, Group: l, Token: 2})
	e2.Observe(commit(ctx, l, mkView(2, l, a, b)))
	if !e2.Ok() {
		t.Fatalf("returned member flagged: %v", e2.Violations())
	}
}

func TestJournalConsistent(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{},
		drift: map[string]string{"mgmt-01": "journal folds 2 groups, live tracks 1"}}
	e := NewEngine(ctx, NewJournalConsistent())
	e.Observe(trace.Record{Kind: trace.KReportApplied, Node: "mgmt-00"})
	if !e.Ok() {
		t.Fatalf("consistent journal flagged: %v", e.Violations())
	}
	e.Observe(trace.Record{Kind: trace.KReportApplied, Node: "mgmt-01"})
	if len(e.Violations()) != 1 {
		t.Fatalf("journal drift not flagged: %v", e.Violations())
	}
}

func TestViolationWindowAndCorrelation(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	e := NewEngine(ctx, NewTwoPC())
	l := ip("10.0.0.9")
	for i := 0; i < 100; i++ {
		e.Observe(trace.Record{Kind: trace.KBeaconSent, Self: l, T: time.Duration(i) * time.Second})
	}
	e.Observe(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 7, T: 100 * time.Second})
	e.Observe(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 7, T: 101 * time.Second})
	vs := e.Violations()
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	v := vs[0]
	if v.Txn != l.String()+"#7" {
		t.Errorf("txn correlation: got %q", v.Txn)
	}
	if v.T != 101*time.Second {
		t.Errorf("violation time: got %v", v.T)
	}
	if len(v.Window) != windowSize {
		t.Errorf("window size: got %d, want %d", len(v.Window), windowSize)
	}
	if last := v.Window[len(v.Window)-1]; last.Kind != trace.KCommitSent || last.T != 101*time.Second {
		t.Errorf("trigger not last in window: %v", last)
	}
}

func TestEngineAttachesAsSink(t *testing.T) {
	ctx := &stubContext{views: map[transport.IP]amg.Membership{}}
	rec := trace.New(64)
	e := NewEngine(ctx) // default: All()
	e.Attach(rec)
	l := ip("10.0.0.9")
	rec.Record(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 3})
	rec.Record(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 3})
	if e.Ok() {
		t.Fatal("sink-fed engine missed a double commit")
	}
}
