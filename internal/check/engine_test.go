package check

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// farmTrace writes the records adapters trace as they install views, so
// the membership the engine judges reaches it the way it does from a
// real run: in the records alone. It remembers the view each adapter
// holds, as the protocol does.
type farmTrace map[transport.IP][]transport.IP

// commit is self installing view v of members (any order). When self
// leads the view (it is the highest member), the joins and removes
// against the view it held come first, as the protocol traces them.
func (h farmTrace) commit(self transport.IP, v uint64, members ...transport.IP) []trace.Record {
	ms := sortDesc(slices.Clone(members))
	leader := ms[0]
	var recs []trace.Record
	if leader == self {
		for _, ip := range h[self] {
			if !slices.Contains(ms, ip) {
				recs = append(recs, trace.Record{Kind: trace.KViewRemove, Self: self, Peer: ip, Group: self, Version: v})
			}
		}
		for _, ip := range ms {
			if !slices.Contains(h[self], ip) {
				recs = append(recs, trace.Record{Kind: trace.KViewJoin, Self: self, Peer: ip, Group: self, Version: v})
			}
		}
	}
	h[self] = ms
	return append(recs, trace.Record{Kind: trace.KViewCommit, Self: self, Group: leader, Version: v,
		Count: uint32(len(ms)), Digest: digestOf(ms)})
}

// started is self's (re)start: it holds no view after it.
func (h farmTrace) started(self transport.IP) trace.Record {
	delete(h, self)
	return trace.Record{Kind: trace.KStarted, Self: self, Token: 2}
}

func observeAll(e *Engine, batches ...[]trace.Record) {
	for _, b := range batches {
		for _, r := range b {
			e.Observe(r)
		}
	}
}

func ip(s string) transport.IP {
	v, ok := transport.ParseIP(s)
	if !ok {
		panic("bad ip " + s)
	}
	return v
}

// only keeps the violations of one invariant: each scenario below is
// about one, and the records that set it up may trip another (a leader
// dropping a member without evidence, say).
func only(e *Engine, checker string) []Violation {
	var out []Violation
	for _, v := range e.Violations() {
		if v.Checker == checker {
			out = append(out, v)
		}
	}
	return out
}

func TestMonotoneVersionsFlagsRegression(t *testing.T) {
	l, m := ip("10.0.0.9"), ip("10.0.0.5")
	h := farmTrace{}
	e := NewEngine(nil)
	observeAll(e, h.commit(m, 5, l, m), h.commit(m, 4, l, m)) // regression within lineage l
	if vs := only(e, "monotone-versions"); len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", e.Violations())
	}

	// A restart ends the lineage: the same lineage may then come back at a
	// lower version without a violation.
	e2 := NewEngine(nil)
	observeAll(e2, h.commit(m, 5, l, m), []trace.Record{h.started(m)}, h.commit(m, 4, l, m))
	if !e2.Ok() {
		t.Fatalf("reset lineage flagged: %v", e2.Violations())
	}
}

func TestSingleIncarnationFlagsDivergentViews(t *testing.T) {
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")
	h := farmTrace{}
	e := NewEngine(nil)
	observeAll(e, h.commit(l, 3, l, a, b), h.commit(a, 3, l, a, b)) // same incarnation, same members: fine
	if !e.Ok() {
		t.Fatalf("consistent incarnation flagged: %v", e.Violations())
	}
	observeAll(e, h.commit(b, 3, l, b)) // same (l,3), different membership
	vs := e.Violations()
	if len(vs) != 1 || vs[0].Checker != "single-incarnation" {
		t.Fatalf("want 1 violation, got %v", vs)
	}
	// The leader's members are known; b's set was never folded by a
	// leader, so the model names it by digest rather than guess.
	if want := "{10.0.0.5,10.0.0.6,10.0.0.9} vs {digest "; !strings.Contains(vs[0].Msg, want) {
		t.Errorf("message %q lacks %q", vs[0].Msg, want)
	}
}

func TestTwoPCFlagsDoubleCommitAndUnpreparedInstall(t *testing.T) {
	e := NewEngine(nil)
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

	e2 := NewEngine(nil)
	e2.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 9})
	if len(e2.Violations()) != 1 || !strings.Contains(e2.Violations()[0].Msg, "without a matching prepare") {
		t.Fatalf("unprepared install not flagged: %v", e2.Violations())
	}
	// "direct" installs (leader refresh / merge fold-in) are exempt.
	e3 := NewEngine(nil)
	e3.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 9, Detail: "direct"})
	if !e3.Ok() {
		t.Fatalf("direct install flagged: %v", e3.Violations())
	}
	// An abort voids the vote: the round's commit may not land after it.
	e4 := NewEngine(nil)
	e4.Observe(trace.Record{Kind: trace.KPrepareRecv, Self: m, Group: l, Token: 4})
	e4.Observe(trace.Record{Kind: trace.KAbortRecv, Self: m, Group: l, Token: 4})
	e4.Observe(trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 4})
	if vs := e4.Violations(); len(vs) != 2 || !strings.Contains(vs[0].Msg, "after aborting it") {
		t.Fatalf("install after abort not flagged: %v", vs)
	}
}

// A restarted adapter keeps beaconing ungrouped while it votes; only its
// KStarted ends a lineage, so a beacon between prepare and commit is not a
// reset, while a restart between them voids the vote.
func TestTwoPCResetIsStartNotBeacon(t *testing.T) {
	l, m := ip("10.0.0.9"), ip("10.0.0.5")
	started := trace.Record{Kind: trace.KStarted, Self: m, Token: 2}
	beacon := trace.Record{Kind: trace.KBeaconSent, Self: m} // Group 0: ungrouped
	prepare := trace.Record{Kind: trace.KPrepareRecv, Self: m, Group: l, Token: 7}
	install := trace.Record{Kind: trace.KCommitRecv, Self: m, Group: l, Token: 7}

	e := NewEngine(nil)
	observeAll(e, []trace.Record{started, beacon, prepare, beacon, install})
	if !e.Ok() {
		t.Fatalf("beacon between prepare and commit read as a reset: %v", e.Violations())
	}

	e2 := NewEngine(nil)
	observeAll(e2, []trace.Record{started, beacon, prepare, started, install})
	if len(e2.Violations()) != 1 || !strings.Contains(e2.Violations()[0].Msg, "without a matching prepare") {
		t.Fatalf("install of a vote cast before a restart not flagged: %v", e2.Violations())
	}
}

func TestEvictionEvidence(t *testing.T) {
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")

	// Unverified drop: leader commits without verdict or retarget.
	h := farmTrace{}
	e := NewEngine(nil)
	observeAll(e, h.commit(l, 1, l, a, b), h.commit(l, 2, l, a))
	if vs := e.Violations(); len(vs) != 1 || !strings.Contains(vs[0].Msg, "dropping 10.0.0.6") {
		t.Fatalf("unverified eviction not flagged: %v", vs)
	}

	// Verdict-dead justifies the drop, and is consumed by it.
	h = farmTrace{}
	e2 := NewEngine(nil)
	observeAll(e2, h.commit(l, 1, l, a, b), []trace.Record{
		{Kind: trace.KProbeSent, Self: l, Peer: b, Token: 1},
		{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1},
	}, h.commit(l, 2, l, a))
	if !e2.Ok() {
		t.Fatalf("verified eviction flagged: %v", e2.Violations())
	}
	observeAll(e2, h.commit(l, 3, l, a, b), h.commit(l, 4, l, a)) // evidence was consumed: must re-verify
	if len(e2.Violations()) != 1 {
		t.Fatalf("evidence not consumed: %v", e2.Violations())
	}

	// A retarget since the previous commit blankets non-responder drops.
	h = farmTrace{}
	e3 := NewEngine(nil)
	observeAll(e3, h.commit(l, 1, l, a, b),
		[]trace.Record{{Kind: trace.KRetarget, Self: l, Group: l, Token: 5}},
		h.commit(l, 2, l, a))
	if !e3.Ok() {
		t.Fatalf("retargeted drop flagged: %v", e3.Violations())
	}

	// False accusation voids the alive-verdict evidence.
	h = farmTrace{}
	e4 := NewEngine(nil)
	observeAll(e4, h.commit(l, 1, l, a, b), []trace.Record{
		{Kind: trace.KProbeSent, Self: l, Peer: b, Token: 2},
		{Kind: trace.KVerdictAlive, Self: l, Peer: b, Token: 2},
		{Kind: trace.KFalseAccusation, Self: l, Peer: b},
	}, h.commit(l, 2, l, a))
	if len(e4.Violations()) != 1 {
		t.Fatalf("drop after false accusation not flagged: %v", e4.Violations())
	}

	// An orphan's singleton drops everyone, but the orphaning ended the
	// lineage first: nothing to justify.
	h = farmTrace{}
	e5 := NewEngine(nil)
	observeAll(e5, h.commit(l, 1, l, a, b),
		[]trace.Record{{Kind: trace.KOrphaned, Self: l, Group: l, Version: 1}},
		h.commit(l, 1001, l))
	if !e5.Ok() {
		t.Fatalf("orphan singleton flagged: %v", e5.Violations())
	}

	// A successor that took over drops the old leader on its verdict, and
	// knows its previous view from the leader's commit it installed.
	h = farmTrace{}
	e6 := NewEngine(nil)
	observeAll(e6, h.commit(l, 1, l, a, b), h.commit(b, 1, l, a, b),
		[]trace.Record{{Kind: trace.KLeaderTakeover, Self: b, Peer: l, Group: l, Version: 1}},
		h.commit(b, 2, b, a))
	if !e6.Ok() {
		t.Fatalf("takeover flagged: %v", e6.Violations())
	}
	observeAll(e6, h.commit(b, 3, b))
	if vs := e6.Violations(); len(vs) != 1 || !strings.Contains(vs[0].Msg, "leader 10.0.0.6 committed v3 dropping 10.0.0.5") {
		t.Fatalf("successor's unverified drop not flagged: %v", vs)
	}
}

func TestVerdictRequiresProbe(t *testing.T) {
	e := NewEngine(nil)
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
	e := NewEngine(nil)
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
	h := farmTrace{}
	e := NewEngine(nil)
	observeAll(e, h.commit(l, 1, l, a, b), []trace.Record{
		{Kind: trace.KProbeSent, Self: l, Peer: b, Token: 1},
		{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1},
	}, h.commit(l, 2, l, a, b)) // still contains the declared-dead b
	if vs := only(e, "no-dead-in-view"); len(vs) != 1 {
		t.Fatalf("dead member in committed view not flagged: %v", e.Violations())
	}

	// A prepare-ack from the member clears the mark (it is back).
	h = farmTrace{}
	e2 := NewEngine(nil)
	observeAll(e2, h.commit(l, 1, l, a, b), []trace.Record{
		{Kind: trace.KProbeSent, Self: l, Peer: b, Token: 1},
		{Kind: trace.KVerdictDead, Self: l, Peer: b, Token: 1},
		{Kind: trace.KPrepareAck, Self: l, Peer: b, Group: l, Token: 2},
	}, h.commit(l, 2, l, a, b))
	if !e2.Ok() {
		t.Fatalf("returned member flagged: %v", e2.Violations())
	}
}

type driftContext map[string]string

func (d driftContext) JournalDrift(node string) string { return d[node] }

func TestJournalConsistent(t *testing.T) {
	e := NewEngine(driftContext{"mgmt-01": "journal folds 2 groups, live tracks 1"})
	e.Observe(trace.Record{Kind: trace.KReportApplied, Node: "mgmt-00"})
	if !e.Ok() {
		t.Fatalf("consistent journal flagged: %v", e.Violations())
	}
	e.Observe(trace.Record{Kind: trace.KReportApplied, Node: "mgmt-01"})
	if len(e.Violations()) != 1 {
		t.Fatalf("journal drift not flagged: %v", e.Violations())
	}
	// Without a live system (a trace read back from a dump) the journal
	// is not judged; nothing else needs the context.
	e2 := NewEngine(nil)
	e2.Observe(trace.Record{Kind: trace.KReportApplied, Node: "mgmt-01"})
	if !e2.Ok() {
		t.Fatalf("offline engine judged the journal: %v", e2.Violations())
	}
}

func TestViolationWindowAndCorrelation(t *testing.T) {
	e := NewEngine(nil)
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
	rec := trace.New(64)
	e := NewEngine(nil)
	e.Attach(rec)
	l := ip("10.0.0.9")
	rec.Record(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 3})
	rec.Record(trace.Record{Kind: trace.KCommitSent, Self: l, Group: l, Token: 3})
	if e.Ok() {
		t.Fatal("sink-fed engine missed a double commit")
	}
}

// The model folds every adapter's members from the records: a leader's
// from its previous view and the traced delta, a member's from the set
// a leader folded under the same digest. When the records do not
// determine them, it says so.
func TestModelFoldsMembersFromRecords(t *testing.T) {
	l, a, b, c := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6"), ip("10.0.0.7")
	h := farmTrace{}
	e := NewEngine(nil)
	want := func(self transport.IP, members ...transport.IP) {
		t.Helper()
		got, ok := e.Members(self)
		if !ok || !slices.Equal(got, sortDesc(members)) {
			t.Errorf("%v holds %v (known %v), want %v", self, got, ok, members)
		}
	}
	observeAll(e, h.commit(l, 1, l, a, b), h.commit(a, 1, l, a, b))
	want(l, l, a, b)
	want(a, l, a, b)
	observeAll(e, h.commit(l, 2, l, a, c))
	want(l, l, a, c)

	// A member install whose set no leader folded is unknown.
	observeAll(e, h.commit(c, 7, ip("10.0.0.10"), c))
	if got, ok := e.Members(c); ok {
		t.Errorf("unfolded member set read as known: %v", got)
	}
	// So is a leader install whose digest disagrees with the fold.
	recs := h.commit(l, 3, l, a)
	recs[len(recs)-1].Digest++
	observeAll(e, recs)
	if got, ok := e.Members(l); ok {
		t.Errorf("fold the digest disputes read as known: %v", got)
	}
	// In a trace merged from several daemons a member's commit may come
	// before its leader's: the leader's fold then gives its members too.
	x, y := ip("10.0.0.20"), ip("10.0.0.19")
	member := h.commit(y, 1, x, y)
	observeAll(e, member)
	if _, ok := e.Members(y); ok {
		t.Errorf("member read as known before its leader's commit")
	}
	observeAll(e, h.commit(x, 1, x, y))
	want(y, x, y)
	// A later singleton needs no history: joins and itself, confirmed by
	// the digest. Its drops are not judged: what it held is unknown.
	before := len(e.Violations())
	observeAll(e, h.commit(l, 4, l))
	want(l, l)
	if vs := e.Violations()[before:]; len(vs) != 0 {
		t.Errorf("drops from an unknown view judged: %v", vs)
	}
}

// Observe allocates nothing per record once a clean stream is in steady
// state: heartbeat-era traffic — beacons, suspicions, probes answered
// alive and dismissed, reports, view refreshes of a known incarnation.
func TestObserveAllocatesNothingInSteadyState(t *testing.T) {
	l, a, b := ip("10.0.0.9"), ip("10.0.0.5"), ip("10.0.0.6")
	h := farmTrace{}
	e := NewEngine(driftContext{})
	observeAll(e, h.commit(l, 1, l, a, b), h.commit(a, 1, l, a, b), h.commit(b, 1, l, a, b))
	nonce := uint64(0)
	cycle := func() {
		nonce++
		for _, r := range [...]trace.Record{
			{Kind: trace.KBeaconSent, Self: l, Group: l, Version: 1},
			{Kind: trace.KBeaconHeard, Self: a, Peer: l},
			{Kind: trace.KSuspicionRaised, Self: a, Peer: b, Group: l, Version: 1, Detail: wire.ReasonMissedHeartbeats.String()},
			{Kind: trace.KSuspicionRecv, Self: l, Peer: b, Group: l, Version: 1},
			{Kind: trace.KProbeSent, Self: l, Peer: b, Token: nonce},
			{Kind: trace.KVerdictAlive, Self: l, Peer: b, Group: l, Version: 1, Token: nonce},
			{Kind: trace.KFalseAccusation, Self: l, Peer: b},
			{Kind: trace.KReportQueued, Self: l, Token: nonce},
			{Kind: trace.KReportApplied, Node: "mgmt-00", Peer: l, Token: nonce},
			{Kind: trace.KCommitRecv, Self: b, Peer: l, Group: l, Version: 1, Detail: "direct"},
			{Kind: trace.KViewCommit, Self: b, Group: l, Version: 1, Count: 3, Digest: digestOf([]transport.IP{l, b, a})},
		} {
			e.Observe(r)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("Observe allocated %.2f times per cycle in steady state", got)
	}
	if !e.Ok() {
		t.Fatalf("steady stream flagged: %v", e.Violations())
	}
}
