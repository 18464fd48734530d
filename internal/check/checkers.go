package check

import (
	"fmt"
	"slices"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// observe judges one record against the invariants, then folds it into
// the model. Each invariant is a predicate over the model, named as its
// violations are; on a record that several judge, they report in the
// order listed here.
func (e *Engine) observe(r *trace.Record) {
	m := &e.model
	switch r.Kind {
	case trace.KStarted, trace.KOrphaned:
		m.reset(r)
	case trace.KViewJoin:
		a := m.adapter(r.Self)
		a.joins = append(a.joins, r.Peer)
	case trace.KViewRemove:
		a := m.adapter(r.Self)
		a.removes = append(a.removes, r.Peer)
	case trace.KViewCommit:
		a := m.adapter(r.Self)
		v := m.fold(a, r)
		e.monotoneVersions(r, a)
		e.singleIncarnation(r, v)
		if r.Group == r.Self {
			e.evictionEvidence(r, a, v)
			e.noDeadInView(r, a, v)
		}
		m.install(a, r, v)
	case trace.KPrepareRecv, trace.KAbortRecv, trace.KCommitSent, trace.KCommitRecv:
		e.twoPhaseCommit(r)
	case trace.KSuspicionRaised:
		e.suspicionEvidence(r)
	case trace.KProbeSent:
		m.adapter(r.Self).probes[r.Token] = r.Peer
	case trace.KVerdictDead, trace.KVerdictAlive:
		a := m.adapter(r.Self)
		if r.Kind == trace.KVerdictDead {
			a.verdicts[r.Peer] = evidenceDeath
			a.dead[r.Peer] = true
		} else {
			// Alive under a foreign lineage is departure evidence (the
			// protocol removes movers without a death declaration). When
			// the suspect turns out to be one of ours, KFalseAccusation
			// follows immediately and voids this.
			a.verdicts[r.Peer] = evidenceDepart
			delete(a.dead, r.Peer)
		}
		e.verdictRequiresProbe(r, a)
	case trace.KLeaderTakeover:
		// A successor promotes itself only after verifying the old leader
		// dead — or alive under another lineage (it defected). Either way
		// the takeover commit legitimately drops it.
		m.adapter(r.Self).verdicts[r.Peer] = evidenceDeath
	case trace.KFalseAccusation:
		a := m.adapter(r.Self)
		delete(a.verdicts, r.Peer)
		delete(a.dead, r.Peer)
	case trace.KPrepareAck:
		// The member voted on a live round: it is demonstrably alive, so
		// a stale death verdict must not justify a future drop, and it is
		// back from the dead as far as this leader is concerned. Departure
		// evidence stays — the mover remains reachable and may well ack a
		// round already in flight when the leader verified it under a
		// foreign lineage, while the queued depart executes one or two
		// commits later.
		a := m.adapter(r.Self)
		if a.verdicts[r.Peer] == evidenceDeath {
			delete(a.verdicts, r.Peer)
		}
		delete(a.dead, r.Peer)
	case trace.KRetarget:
		m.adapter(r.Self).retarget = true
	case trace.KReportApplied, trace.KJournalReplayed:
		e.journalConsistent(r)
	}
}

// ---------------------------------------------------------------------------
// monotone-versions: within one lineage (same leader IP), an adapter
// never installs a view older than one it already holds. The member-side
// guards in onPrepare/onCommit are supposed to make regressions
// structurally impossible; this watches them from the outside.
func (e *Engine) monotoneVersions(r *trace.Record, a *adapter) {
	if a.held && a.group == r.Group && r.Version < a.version {
		e.report("monotone-versions", r, fmt.Sprintf("adapter %v installed view v%d of lineage %v after already holding v%d",
			r.Self, r.Version, r.Group, a.version))
	}
}

// ---------------------------------------------------------------------------
// single-incarnation: every adapter that commits incarnation (G, V) must
// install the identical membership — a disagreement means two adapters
// think they are in the same group version with different peers, the
// split-brain a stale 2PC ack can cause. The digests decide; when the
// leader G resets (crash-restart reuses versions from 1), the model
// forgets its lineage's incarnations.
func (e *Engine) singleIncarnation(r *trace.Record, v view) {
	prev, ok := e.model.views[gvKey{r.Group, r.Version}]
	if ok && prev.digest != v.digest {
		e.report("single-incarnation", r, fmt.Sprintf("incarnation %v/v%d committed with divergent memberships: {%v} vs {%v} at %v",
			r.Group, r.Version, prev, v, r.Self))
	}
}

// ---------------------------------------------------------------------------
// two-phase-commit: a round token commits at most once, commits only at
// adapters that voted for it (or were folded in by a leader's direct
// refresh), and never lands after the same round aborted there.
func (e *Engine) twoPhaseCommit(r *trace.Record) {
	k := txnKey{r.Group, r.Token}
	t := e.model.txns[k]
	if t == nil {
		t = &txn{votes: map[transport.IP]vote{}}
		e.model.txns[k] = t
	}
	switch r.Kind {
	case trace.KPrepareRecv:
		if r.Detail == "rejected" {
			t.votes[r.Self] &^= prepared
		} else {
			t.votes[r.Self] |= prepared
		}
	case trace.KAbortRecv:
		t.votes[r.Self] = t.votes[r.Self]&^prepared | aborted
	case trace.KCommitSent:
		if r.Self != r.Group {
			e.report("two-phase-commit", r, fmt.Sprintf("commit of txn %s sent by %v, which is not the round's leader",
				r.TxnID(), r.Self))
		}
		if r.Token != 0 && t.committed {
			e.report("two-phase-commit", r, fmt.Sprintf("txn %s committed twice by its leader", r.TxnID()))
		}
		t.committed = true
	case trace.KCommitRecv:
		// Token 0 is the leader's unilateral view refresh for a member
		// that fell behind — not a voted round.
		if r.Token == 0 {
			return
		}
		got := t.votes[r.Self]
		if got&installed != 0 {
			e.report("two-phase-commit", r, fmt.Sprintf("adapter %v installed txn %s twice", r.Self, r.TxnID()))
		}
		if got&aborted != 0 {
			e.report("two-phase-commit", r, fmt.Sprintf("adapter %v installed txn %s after aborting it", r.Self, r.TxnID()))
		}
		// "direct" commits adopt the view without a prepare (merge
		// fold-in); everything else must have a live prepared state.
		if r.Detail != "direct" && got&prepared == 0 {
			e.report("two-phase-commit", r, fmt.Sprintf("adapter %v installed txn %s without a matching prepare", r.Self, r.TxnID()))
		}
		t.votes[r.Self] = got | installed
	}
}

// ---------------------------------------------------------------------------
// eviction-evidence: when a leader commits a view that drops a member,
// the leader must hold evidence for the removal — a verification verdict
// (KVerdictDead, or KVerdictAlive under a foreign lineage) for that
// member, or a 2PC retarget since its previous commit (the member stayed
// silent through a voted round). A removal with neither is the paper's
// §3 false-report flaw: acting on an unverified suspicion. This is the
// predicate that catches Config.UnsafeSkipVerify. The drops are judged
// against the view the leader held since its lineage last ended; the
// retarget is collective evidence for every drop in the commit.
func (e *Engine) evictionEvidence(r *trace.Record, a *adapter, v view) {
	if a.held && a.view.known && v.known {
		for _, m := range a.view.members {
			if m == r.Self || v.has(m) {
				continue
			}
			if _, ok := a.verdicts[m]; ok {
				delete(a.verdicts, m) // evidence consumed by the removal
			} else if !a.retarget {
				e.report("eviction-evidence", r, fmt.Sprintf("leader %v committed v%d dropping %v without a dead verdict or 2PC retarget",
					r.Self, r.Version, m))
			}
		}
	}
	a.retarget = false
}

// ---------------------------------------------------------------------------
// suspicion-evidence: a raised suspicion must cite detector evidence —
// one of the wire-protocol suspect reasons — and, per §3, is only traced
// after the loopback self-test passed, so an unknown or empty reason
// means a suspicion fabricated outside the detection path.
func (e *Engine) suspicionEvidence(r *trace.Record) {
	if !detectorReasons[r.Detail] {
		e.report("suspicion-evidence", r, fmt.Sprintf("adapter %v raised suspicion of %v with no detector evidence (reason %q)",
			r.Self, r.Peer, r.Detail))
	}
}

var detectorReasons = map[string]bool{
	wire.ReasonMissedHeartbeats.String(): true,
	wire.ReasonProbeTimeout.String():     true,
	wire.ReasonPingTimeout.String():      true,
	wire.ReasonSubgroupDead.String():     true,
	wire.ReasonStaleView.String():        true,
}

// ---------------------------------------------------------------------------
// verdict-requires-probe: a leader may declare a suspect dead only after
// actually probing it — every verdict must match an earlier KProbeSent
// (same adapter, same nonce) aimed at that suspect.
func (e *Engine) verdictRequiresProbe(r *trace.Record, a *adapter) {
	peer, ok := a.probes[r.Token]
	if !ok || peer != r.Peer {
		e.report("verdict-requires-probe", r, fmt.Sprintf("adapter %v reached a verdict on %v without a matching probe (nonce %d)",
			r.Self, r.Peer, r.Token))
	}
	delete(a.probes, r.Token)
}

// ---------------------------------------------------------------------------
// no-dead-in-view: once a leader's verification declared a member dead,
// no later view the leader commits may still contain it — unless the
// member demonstrably came back (an alive verdict, a vote on a new
// round, or its removal completing and a fresh join).
func (e *Engine) noDeadInView(r *trace.Record, a *adapter, v view) {
	if !v.known {
		return
	}
	still := e.still[:0]
	for peer := range a.dead { // order-free: reported sorted below
		if v.has(peer) {
			still = append(still, peer)
		} else {
			delete(a.dead, peer) // eviction completed
		}
	}
	slices.Sort(still)
	for _, peer := range still {
		e.report("no-dead-in-view", r, fmt.Sprintf("leader %v committed v%d still containing %v, which it declared dead",
			r.Self, r.Version, peer))
	}
	e.still = still
}

// ---------------------------------------------------------------------------
// journal-consistent: whenever a Central applies a report or replays its
// journal, replaying the journal's store (snapshot + log) into a fresh
// state must reproduce exactly the live view — the durability guarantee
// failover relies on, since a successor stands up from that replay. The
// one invariant the records cannot carry: it needs the live Central, so
// it is judged only when the engine has a Context.
func (e *Engine) journalConsistent(r *trace.Record) {
	if e.ctx == nil {
		return
	}
	if drift := e.ctx.JournalDrift(r.Node); drift != "" {
		e.report("journal-consistent", r, fmt.Sprintf("central %s journal diverged from live state: %s", r.Node, drift))
	}
}

// Members returns the addresses of the view the adapter at ip holds in
// the model, highest first, and false when the records do not determine
// them.
func (e *Engine) Members(ip transport.IP) ([]transport.IP, bool) {
	a := e.model.adapter(ip)
	e.model.resolve(a)
	return a.view.members, a.view.known
}
