package check

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// All returns one instance of every invariant checker, the default set
// for chaos runs.
func All() []Checker {
	return []Checker{
		NewMonotoneVersions(),
		NewSingleIncarnation(),
		NewTwoPC(),
		NewEvictionEvidence(),
		NewSuspicionEvidence(),
		NewVerdictRequiresProbe(),
		NewNoDeadInView(),
		NewJournalConsistent(),
	}
}

// gvKey identifies one group incarnation: lineage leader + view version.
type gvKey struct {
	g transport.IP
	v uint64
}

// txnKey identifies one 2PC transaction: committing leader + round token.
type txnKey struct {
	g   transport.IP
	tok uint64
}

// pairKey identifies an (observer, subject) adapter pair.
type pairKey struct {
	self transport.IP
	peer transport.IP
}

// isAdapterReset reports whether rec ends the adapter's group lineage:
// a (re)start (KStarted) or an orphaning (KOrphaned, which every eviction
// also ends in). Nothing else is a reset. After either, the adapter's
// version counter legitimately restarts and its open votes are void.
func isAdapterReset(rec trace.Record) bool {
	return rec.Kind == trace.KStarted || rec.Kind == trace.KOrphaned
}

// viewFingerprint renders the committed membership of the adapter that
// just traced a KViewCommit (commitView installs the view before
// tracing, so ViewOf sees it). Empty when the context can't resolve it.
func viewFingerprint(ctx Context, self transport.IP) string {
	v, ok := ctx.ViewOf(self)
	if !ok {
		return ""
	}
	ips := v.IPs()
	ss := make([]string, len(ips))
	for i, ip := range ips {
		ss[i] = ip.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// ---------------------------------------------------------------------------
// monotone-versions: within one lineage (same leader IP), an adapter
// never installs a view older than one it already holds. The member-side
// guards in onPrepare/onCommit are supposed to make regressions
// structurally impossible; this watches them from the outside.

type monotoneVersions struct {
	last map[transport.IP]gvKey // adapter -> last committed incarnation
}

// NewMonotoneVersions builds the monotone-versions checker.
func NewMonotoneVersions() Checker {
	return &monotoneVersions{last: map[transport.IP]gvKey{}}
}

func (c *monotoneVersions) Name() string { return "monotone-versions" }

func (c *monotoneVersions) Observe(ctx Context, rec trace.Record, report func(string)) {
	if isAdapterReset(rec) {
		delete(c.last, rec.Self)
		return
	}
	if rec.Kind != trace.KViewCommit {
		return
	}
	prev, ok := c.last[rec.Self]
	if ok && prev.g == rec.Group && rec.Version < prev.v {
		report(fmt.Sprintf("adapter %v installed view v%d of lineage %v after already holding v%d",
			rec.Self, rec.Version, rec.Group, prev.v))
	}
	c.last[rec.Self] = gvKey{rec.Group, rec.Version}
}

// ---------------------------------------------------------------------------
// single-incarnation: every adapter that commits incarnation (G, V) must
// install the identical membership — a disagreement means two adapters
// think they are in the same group version with different peers, the
// split-brain a stale 2PC ack can cause. When the leader adapter G
// resets (crash-restart reuses versions from 1), its lineage's recorded
// incarnations are discarded.

type singleIncarnation struct {
	views map[gvKey]string // incarnation -> membership fingerprint
}

// NewSingleIncarnation builds the single-incarnation checker.
func NewSingleIncarnation() Checker {
	return &singleIncarnation{views: map[gvKey]string{}}
}

func (c *singleIncarnation) Name() string { return "single-incarnation" }

func (c *singleIncarnation) Observe(ctx Context, rec trace.Record, report func(string)) {
	if isAdapterReset(rec) {
		maps.DeleteFunc(c.views, func(k gvKey, _ string) bool { return k.g == rec.Self })
		return
	}
	if rec.Kind != trace.KViewCommit {
		return
	}
	fp := viewFingerprint(ctx, rec.Self)
	if fp == "" {
		return
	}
	k := gvKey{rec.Group, rec.Version}
	if prev, ok := c.views[k]; ok {
		if prev != fp {
			report(fmt.Sprintf("incarnation %v/v%d committed with divergent memberships: {%s} vs {%s} at %v",
				rec.Group, rec.Version, prev, fp, rec.Self))
		}
		return
	}
	c.views[k] = fp
}

// ---------------------------------------------------------------------------
// two-phase-commit: a round token commits at most once, commits only at
// adapters that voted for it (or were folded in by a leader's direct
// refresh), and never lands after the same round aborted there.

type twoPC struct {
	committed map[txnKey]bool                  // leader committed this token
	prepared  map[txnKey]map[transport.IP]bool // adapters holding a live (non-rejected) prepare
	aborted   map[txnKey]map[transport.IP]bool // adapters that saw Abort for the token
	installed map[txnKey]map[transport.IP]bool // adapters that installed the commit
}

// NewTwoPC builds the 2PC checker.
func NewTwoPC() Checker {
	return &twoPC{
		committed: map[txnKey]bool{},
		prepared:  map[txnKey]map[transport.IP]bool{},
		aborted:   map[txnKey]map[transport.IP]bool{},
		installed: map[txnKey]map[transport.IP]bool{},
	}
}

func (c *twoPC) Name() string { return "two-phase-commit" }

func mark(m map[txnKey]map[transport.IP]bool, k txnKey, ip transport.IP) {
	s := m[k]
	if s == nil {
		s = map[transport.IP]bool{}
		m[k] = s
	}
	s[ip] = true
}

func (c *twoPC) Observe(ctx Context, rec trace.Record, report func(string)) {
	if isAdapterReset(rec) {
		// The adapter's lineage died: rounds led by it are over (a
		// crash-restarted leader process restarts its token counter, so
		// (leader, token) pairs legitimately repeat across incarnations),
		// and its own votes/installs under other leaders are forgotten.
		for _, m := range []map[txnKey]map[transport.IP]bool{c.prepared, c.aborted, c.installed} {
			for k, set := range m {
				if k.g == rec.Self {
					delete(m, k)
				} else {
					delete(set, rec.Self)
				}
			}
		}
		maps.DeleteFunc(c.committed, func(k txnKey, _ bool) bool { return k.g == rec.Self })
		return
	}
	k := txnKey{rec.Group, rec.Token}
	switch rec.Kind {
	case trace.KPrepareRecv:
		if rec.Detail == "rejected" {
			delete(c.prepared[k], rec.Self)
		} else {
			mark(c.prepared, k, rec.Self)
		}
	case trace.KAbortRecv:
		mark(c.aborted, k, rec.Self)
		delete(c.prepared[k], rec.Self)
	case trace.KCommitSent:
		if rec.Self != rec.Group {
			report(fmt.Sprintf("commit of txn %s sent by %v, which is not the round's leader",
				rec.TxnID(), rec.Self))
		}
		if rec.Token != 0 && c.committed[k] {
			report(fmt.Sprintf("txn %s committed twice by its leader", rec.TxnID()))
		}
		c.committed[k] = true
	case trace.KCommitRecv:
		// Token 0 is the leader's unilateral view refresh for a member
		// that fell behind — not a voted round.
		if rec.Token == 0 {
			return
		}
		if c.installed[k][rec.Self] {
			report(fmt.Sprintf("adapter %v installed txn %s twice", rec.Self, rec.TxnID()))
		}
		if c.aborted[k][rec.Self] {
			report(fmt.Sprintf("adapter %v installed txn %s after aborting it", rec.Self, rec.TxnID()))
		}
		// "direct" commits adopt the view without a prepare (merge
		// fold-in); everything else must have a live prepared state.
		if rec.Detail != "direct" && !c.prepared[k][rec.Self] {
			report(fmt.Sprintf("adapter %v installed txn %s without a matching prepare", rec.Self, rec.TxnID()))
		}
		mark(c.installed, k, rec.Self)
	}
}

// ---------------------------------------------------------------------------
// eviction-evidence: when a leader commits a view that drops a member,
// the leader must hold evidence for the removal — a verification verdict
// (KVerdictDead) for that member, or a 2PC retarget since its previous
// commit (the member stayed silent through a voted round). A removal
// with neither is the paper's §3 false-report flaw: acting on an
// unverified suspicion. This is the checker that catches
// Config.UnsafeSkipVerify.

// evidenceKind distinguishes why a leader may drop a member.
type evidenceKind uint8

const (
	evidenceDeath  evidenceKind = iota // verified dead (or takeover of a dead leader)
	evidenceDepart                     // verified alive under a foreign lineage
)

type evictionEvidence struct {
	prevView map[transport.IP][]transport.IP // leader adapter -> members of its last committed view
	verdicts map[pairKey]evidenceKind        // (leader, member) -> unconsumed removal evidence
	retarget map[transport.IP]bool           // leader -> retarget seen since last commit
}

// NewEvictionEvidence builds the eviction-evidence checker.
func NewEvictionEvidence() Checker {
	return &evictionEvidence{
		prevView: map[transport.IP][]transport.IP{},
		verdicts: map[pairKey]evidenceKind{},
		retarget: map[transport.IP]bool{},
	}
}

func (c *evictionEvidence) Name() string { return "eviction-evidence" }

func (c *evictionEvidence) Observe(ctx Context, rec trace.Record, report func(string)) {
	if isAdapterReset(rec) {
		delete(c.prevView, rec.Self)
		delete(c.retarget, rec.Self)
		return
	}
	switch rec.Kind {
	case trace.KVerdictDead:
		c.verdicts[pairKey{rec.Self, rec.Peer}] = evidenceDeath
	case trace.KLeaderTakeover:
		// A successor promotes itself only after verifying the old
		// leader dead — or alive under another lineage (it defected).
		// Either way the takeover commit legitimately drops it.
		c.verdicts[pairKey{rec.Self, rec.Peer}] = evidenceDeath
	case trace.KVerdictAlive:
		// Alive under a foreign lineage is departure evidence (the
		// protocol removes movers without a death declaration). When the
		// suspect turns out to be one of ours, KFalseAccusation follows
		// immediately and voids this.
		c.verdicts[pairKey{rec.Self, rec.Peer}] = evidenceDepart
	case trace.KFalseAccusation:
		delete(c.verdicts, pairKey{rec.Self, rec.Peer})
	case trace.KPrepareAck:
		// The member voted on a live round: it is demonstrably alive, so
		// a stale death verdict must not justify a future drop. Departure
		// evidence is different — the mover stays reachable and may well
		// ack a round that was already in flight when the leader verified
		// it under a foreign lineage, while the queued depart executes
		// one or two commits later.
		if c.verdicts[pairKey{rec.Self, rec.Peer}] == evidenceDeath {
			delete(c.verdicts, pairKey{rec.Self, rec.Peer})
		}
	case trace.KRetarget:
		c.retarget[rec.Self] = true
	case trace.KViewCommit:
		if rec.Group != rec.Self {
			// A member's commit: its own prior view is superseded, not
			// evidence of anything. Just refresh what it holds.
			c.setView(ctx, rec.Self)
			return
		}
		v, ok := ctx.ViewOf(rec.Self)
		if !ok {
			return
		}
		for _, m := range c.prevView[rec.Self] {
			if v.Contains(m) || m == rec.Self {
				continue
			}
			pk := pairKey{rec.Self, m}
			_, hasVerdict := c.verdicts[pk]
			switch {
			case hasVerdict:
				delete(c.verdicts, pk) // evidence consumed by the removal
			case c.retarget[rec.Self]:
				// The member sat silent through a voted round; the
				// retarget is collective evidence for every drop in
				// this commit.
			default:
				report(fmt.Sprintf("leader %v committed v%d dropping %v without a dead verdict or 2PC retarget",
					rec.Self, rec.Version, m))
			}
		}
		delete(c.retarget, rec.Self)
		c.prevView[rec.Self] = v.IPs()
	}
}

func (c *evictionEvidence) setView(ctx Context, self transport.IP) {
	if v, ok := ctx.ViewOf(self); ok {
		c.prevView[self] = v.IPs()
	}
}

// ---------------------------------------------------------------------------
// suspicion-evidence: a raised suspicion must cite detector evidence —
// one of the wire-protocol suspect reasons — and, per §3, is only traced
// after the loopback self-test passed, so an unknown or empty reason
// means a suspicion fabricated outside the detection path.

type suspicionEvidence struct {
	reasons map[string]bool
}

// NewSuspicionEvidence builds the suspicion-evidence checker.
func NewSuspicionEvidence() Checker {
	return &suspicionEvidence{reasons: map[string]bool{
		wire.ReasonMissedHeartbeats.String(): true,
		wire.ReasonProbeTimeout.String():     true,
		wire.ReasonPingTimeout.String():      true,
		wire.ReasonSubgroupDead.String():     true,
		wire.ReasonStaleView.String():        true,
	}}
}

func (c *suspicionEvidence) Name() string { return "suspicion-evidence" }

func (c *suspicionEvidence) Observe(ctx Context, rec trace.Record, report func(string)) {
	if rec.Kind != trace.KSuspicionRaised {
		return
	}
	if !c.reasons[rec.Detail] {
		report(fmt.Sprintf("adapter %v raised suspicion of %v with no detector evidence (reason %q)",
			rec.Self, rec.Peer, rec.Detail))
	}
}

// ---------------------------------------------------------------------------
// verdict-requires-probe: a leader may declare a suspect dead only after
// actually probing it — every KVerdictDead must match an earlier
// KProbeSent (same adapter, same nonce) aimed at that suspect.

type verdictRequiresProbe struct {
	probes map[txnKey]transport.IP // (prober, nonce) -> probed peer
}

// NewVerdictRequiresProbe builds the verdict-requires-probe checker.
func NewVerdictRequiresProbe() Checker {
	return &verdictRequiresProbe{probes: map[txnKey]transport.IP{}}
}

func (c *verdictRequiresProbe) Name() string { return "verdict-requires-probe" }

func (c *verdictRequiresProbe) Observe(ctx Context, rec trace.Record, report func(string)) {
	switch rec.Kind {
	case trace.KProbeSent:
		c.probes[txnKey{rec.Self, rec.Token}] = rec.Peer
	case trace.KVerdictDead, trace.KVerdictAlive:
		k := txnKey{rec.Self, rec.Token}
		peer, ok := c.probes[k]
		if !ok || peer != rec.Peer {
			report(fmt.Sprintf("adapter %v reached a verdict on %v without a matching probe (nonce %d)",
				rec.Self, rec.Peer, rec.Token))
		}
		delete(c.probes, k)
	}
}

// ---------------------------------------------------------------------------
// no-dead-in-view: once a leader's verification declared a member dead,
// no later view the leader commits may still contain it — unless the
// member demonstrably came back (an alive verdict, a vote on a new
// round, or its removal completing and a fresh join).

type noDeadInView struct {
	dead map[pairKey]bool // (leader, member) -> declared dead, not yet removed
}

// NewNoDeadInView builds the no-dead-in-view checker.
func NewNoDeadInView() Checker {
	return &noDeadInView{dead: map[pairKey]bool{}}
}

func (c *noDeadInView) Name() string { return "no-dead-in-view" }

func (c *noDeadInView) Observe(ctx Context, rec trace.Record, report func(string)) {
	if isAdapterReset(rec) {
		maps.DeleteFunc(c.dead, func(k pairKey, _ bool) bool { return k.self == rec.Self })
		return
	}
	switch rec.Kind {
	case trace.KVerdictDead:
		c.dead[pairKey{rec.Self, rec.Peer}] = true
	case trace.KVerdictAlive, trace.KFalseAccusation:
		delete(c.dead, pairKey{rec.Self, rec.Peer})
	case trace.KPrepareAck:
		// The member voted on a live round: it is back from the dead as
		// far as this leader is concerned.
		delete(c.dead, pairKey{rec.Self, rec.Peer})
	case trace.KViewCommit:
		if rec.Group != rec.Self {
			return
		}
		v, ok := ctx.ViewOf(rec.Self)
		if !ok {
			return
		}
		var still []transport.IP
		for k := range c.dead { // order-free: reported sorted below
			if k.self != rec.Self {
				continue
			}
			if v.Contains(k.peer) {
				still = append(still, k.peer)
			} else {
				delete(c.dead, k) // eviction completed
			}
		}
		slices.Sort(still)
		for _, peer := range still {
			report(fmt.Sprintf("leader %v committed v%d still containing %v, which it declared dead",
				rec.Self, rec.Version, peer))
		}
	}
}

// ---------------------------------------------------------------------------
// journal-consistent: whenever a Central applies a report or replays its
// journal, replaying the journal's store (snapshot + log) into a fresh
// state must reproduce exactly the live view — the durability guarantee
// failover relies on, since a successor stands up from that replay.

type journalConsistent struct{}

// NewJournalConsistent builds the journal-consistency checker.
func NewJournalConsistent() Checker { return journalConsistent{} }

func (journalConsistent) Name() string { return "journal-consistent" }

func (journalConsistent) Observe(ctx Context, rec trace.Record, report func(string)) {
	if rec.Kind != trace.KReportApplied && rec.Kind != trace.KJournalReplayed {
		return
	}
	if drift := ctx.JournalDrift(rec.Node); drift != "" {
		report(fmt.Sprintf("central %s journal diverged from live state: %s", rec.Node, drift))
	}
}
