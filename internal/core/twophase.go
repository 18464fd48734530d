package core

import (
	"maps"
	"slices"
	"time"

	"repro/internal/amg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// leaderState is everything an adapter does only while leading an AMG:
// running membership two-phase commits, batching joins and removals,
// verifying suspicions, and triggering reports to GulfStream Central.
type leaderState struct {
	p *adapterProto

	round *twoPCRound

	dirtyJoins map[transport.IP]wire.Member
	// dirtyRemoves maps member -> verified death (true) vs. departure to
	// another group (false); only deaths are traced as such when the
	// removal commits.
	dirtyRemoves map[transport.IP]bool
	changeTimer  transport.Timer

	suspicions map[transport.IP]*suspicionState
	evictAt    map[transport.IP]time.Duration

	// reporting
	reported      amg.Membership // membership as last told to Central
	reportedValid bool
	stableTimer   transport.Timer
	// prevLeader/prevVersion identify the group this leadership term
	// superseded (set on successor takeover); carried in full reports so
	// Central can rekey the right lineage.
	prevLeader  transport.IP
	prevVersion uint64
	// fresh marks a lineage break (reformation after total isolation);
	// carried in the next full report, then cleared.
	fresh bool

	refreshAt map[transport.IP]time.Duration

	// fan is the destination scratch of the Prepare and Commit fan-outs.
	// It belongs to the leader, not the package: trials run on parallel
	// goroutines.
	fan []transport.IP
}

func newLeaderState(p *adapterProto) *leaderState {
	return &leaderState{
		p:            p,
		dirtyJoins:   make(map[transport.IP]wire.Member),
		dirtyRemoves: make(map[transport.IP]bool),
		suspicions:   make(map[transport.IP]*suspicionState),
		refreshAt:    make(map[transport.IP]time.Duration),
		evictAt:      make(map[transport.IP]time.Duration),
	}
}

func (l *leaderState) stop() {
	if l.round != nil {
		l.round.cancel()
		l.round = nil
	}
	if l.changeTimer != nil {
		l.changeTimer.Stop()
		l.changeTimer = nil
	}
	if l.stableTimer != nil {
		l.stableTimer.Stop()
		l.stableTimer = nil
	}
	for _, s := range l.suspicions { // order-free: cancel only stops a timer
		s.cancel()
	}
	l.suspicions = make(map[transport.IP]*suspicionState)
}

// --- membership change batching ---

// queueJoin schedules a member addition. Higher-IP ungrouped adapters are
// ignored: they will finish discovery as leaders and absorb us through the
// normal merge path, keeping "highest IP leads" invariant intact.
func (l *leaderState) queueJoin(m wire.Member) {
	p := l.p
	if m.IP == p.self || m.IP == 0 {
		return
	}
	if m.IP > p.self {
		return
	}
	if p.view.Contains(m.IP) && !l.dirtyRemoves[m.IP] {
		return
	}
	delete(l.dirtyRemoves, m.IP)
	l.dirtyJoins[m.IP] = m
	l.scheduleChange()
}

// queueRemove schedules a member removal after a verified death.
func (l *leaderState) queueRemove(ip transport.IP) {
	l.remove(ip, true)
}

// queueDepart schedules removal of a member that is alive but follows
// another leader (it moved segments); no death is declared.
func (l *leaderState) queueDepart(ip transport.IP) {
	l.remove(ip, false)
}

func (l *leaderState) remove(ip transport.IP, death bool) {
	p := l.p
	if ip == p.self || !p.view.Contains(ip) {
		return
	}
	delete(l.dirtyJoins, ip)
	if prev, ok := l.dirtyRemoves[ip]; !ok || !prev {
		l.dirtyRemoves[ip] = death
	}
	l.scheduleChange()
}

func (l *leaderState) scheduleChange() {
	if l.changeTimer != nil {
		return
	}
	l.changeTimer = l.p.clock().AfterFunc(l.p.d.cfg.JoinBatchDelay, l.flushChanges)
}

func (l *leaderState) flushChanges() {
	l.changeTimer = nil
	if l.p.state != stLeader {
		return
	}
	if l.round != nil {
		// A commit is in flight; batch again after it resolves.
		l.scheduleChange()
		return
	}
	if len(l.dirtyJoins) == 0 && len(l.dirtyRemoves) == 0 {
		return
	}
	target := l.p.view
	op := wire.OpJoin
	if len(l.dirtyRemoves) > 0 {
		var gone []transport.IP
		for ip := range l.dirtyRemoves { // order-free: Without rebuilds through amg.New, which sorts
			gone = append(gone, ip)
		}
		target = target.Without(gone...)
		op = wire.OpRemove
	}
	if len(l.dirtyJoins) > 0 {
		var extra []wire.Member
		for _, m := range l.dirtyJoins { // order-free: WithJoined rebuilds through amg.New, which sorts
			extra = append(extra, m)
		}
		target = target.WithJoined(extra...)
		if op == wire.OpJoin && len(l.dirtyJoins) > 1 {
			op = wire.OpMerge
		}
	}
	var deaths []transport.IP
	for ip, wasDeath := range l.dirtyRemoves { // order-free: sorted below
		if wasDeath {
			deaths = append(deaths, ip)
		}
	}
	slices.Sort(deaths) // commit traces them in this order
	l.dirtyJoins = make(map[transport.IP]wire.Member)
	l.dirtyRemoves = make(map[transport.IP]bool)
	if target.SameMembers(l.p.view) {
		return
	}
	l.startChange(op, target)
	if l.round != nil {
		l.round.deaths = append(l.round.deaths, deaths...)
	}
}

// --- the two-phase commit itself ---

type twoPCRound struct {
	l       *leaderState
	op      wire.Op
	target  amg.Membership
	token   uint64
	waiting map[transport.IP]bool
	// deaths lists verified-dead members whose removal this round carries.
	// Each gets a KDeathCommitted record only when the removal commits: an
	// isolation abort retracts the declarations and traces none.
	deaths  []transport.IP
	resends int // Prepare retransmissions for the current target
	shrinks int // how many times the target was reduced
	timer   transport.Timer
	done    bool
}

func (r *twoPCRound) cancel() {
	r.done = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
}

// startChange opens a 2PC establishing target. If a round is already in
// flight the desired changes are folded back into the dirty sets.
func (l *leaderState) startChange(op wire.Op, target amg.Membership) {
	p := l.p
	if l.round != nil {
		joined, left := target.Diff(p.view)
		for _, m := range joined {
			l.queueJoin(m)
		}
		for _, ip := range left {
			l.queueRemove(ip)
		}
		return
	}
	floor := p.view.Version
	if p.ledFloor > floor {
		// Re-promoted after an absorption: the current view's counter
		// (inherited from the absorbing group) sits below versions this
		// adapter's own lineage already committed. Reusing one would give
		// two different memberships the same (leader, version) identity.
		floor = p.ledFloor
	}
	if target.Version <= floor {
		target.Version = floor + 1
	}
	r := &twoPCRound{l: l, op: op, target: target, token: p.d.token(), waiting: make(map[transport.IP]bool)}
	l.round = r
	r.send()
}

// send issues Prepares to every other member and arms the round timer.
func (r *twoPCRound) send() {
	p := r.l.p
	for _, m := range r.target.Members {
		if m.IP != p.self {
			r.waiting[m.IP] = true
		}
	}
	if len(r.waiting) == 0 {
		r.commit()
		return
	}
	p.trace(&trace.Record{Kind: trace.KPrepareSent, Group: p.self,
		Version: r.target.Version, Token: r.token, Count: uint32(len(r.target.Members))})
	prep := &wire.Prepare{Leader: p.self, Version: r.target.Version, Token: r.token, Op: r.op, Members: r.target.Members}
	fan := r.l.fan[:0]
	for _, m := range r.target.Members {
		if m.IP != p.self {
			fan = append(fan, m.IP)
		}
	}
	r.l.sendFan(fan, prep)
	r.timer = p.clock().AfterFunc(p.d.cfg.CommitTimeout, r.timeout)
}

// sendFan encodes m once and sends the packet to every member in fan as
// one fan-out: a Prepare or Commit carries the full member list, so a
// per-member encoding or payload copy would be O(N²) bytes per round.
// fan is the leader's scratch, kept for the next round.
func (l *leaderState) sendFan(fan []transport.IP, m wire.Message) {
	l.fan = fan
	pkt := wire.NewPacket(m)
	_ = transport.UnicastFan(l.p.ep, transport.PortMember, transport.PortMember, fan, pkt.Bytes())
	pkt.Free()
}

// onPrepareAck is routed here by the adapter's member-plane handler.
func (l *leaderState) onPrepareAck(m *wire.PrepareAck) {
	r := l.round
	if r == nil || r.done || m.Token != r.token || m.Leader != l.p.self {
		return
	}
	if !r.waiting[m.From] {
		return
	}
	det := ""
	if !m.OK {
		det = "rejected"
	}
	l.p.trace(&trace.Record{Kind: trace.KPrepareAck, Peer: m.From, Group: l.p.self,
		Version: m.Version, Token: m.Token, Detail: det})
	if !m.OK {
		// The member refused (it belongs to a higher leader, or raced
		// ahead of us). Drop it and re-run the round without it.
		r.retarget(r.target.Without(m.From))
		return
	}
	delete(r.waiting, m.From)
	if len(r.waiting) == 0 {
		if r.timer != nil {
			r.timer.Stop()
		}
		r.commit()
	}
}

// timeout first retransmits the Prepare to members that stayed silent
// (lost packets, not dead members); only after the retry budget does it
// drop them and retry with the shrunken set.
func (r *twoPCRound) timeout() {
	if r.done {
		return
	}
	p := r.l.p
	r.timer = nil
	if r.resends < p.d.cfg.CommitRetries {
		r.resends++
		p.trace(&trace.Record{Kind: trace.KPrepareSent, Group: p.self,
			Version: r.target.Version, Token: r.token,
			Count: uint32(len(r.target.Members)), Detail: "resend"})
		// Resend in ascending IP order: iterating the waiting map directly
		// would consume the shared RNG (loss/latency draws) in map order and
		// break run-for-run determinism.
		fan := r.l.fan[:0]
		for _, m := range r.target.Members {
			if r.waiting[m.IP] {
				fan = append(fan, m.IP)
			}
		}
		r.l.sendFan(fan, &wire.Prepare{Leader: p.self, Version: r.target.Version, Token: r.token, Op: r.op, Members: r.target.Members})
		r.timer = p.clock().AfterFunc(p.d.cfg.CommitTimeout, r.timeout)
		return
	}
	var silent []transport.IP
	for ip := range r.waiting { // order-free: Without rebuilds through amg.New, which sorts
		silent = append(silent, ip)
	}
	r.retarget(r.target.Without(silent...))
}

// retarget restarts the round against a reduced membership. Versions keep
// the original target's number (it was never committed); the rounds are
// bounded because the set shrinks toward the singleton.
//
// Each retarget draws a FRESH token. Reusing the old one opens a
// divergence race the invariant engine caught immediately: member M acks
// Prepare(target1, tok); the ack is still in flight when another member's
// rejection triggers a retarget; the re-sent Prepare(target2, tok) to M
// is lost or reordered behind the Commit; M's stale ack then satisfies
// the new round's waiting set (acks matched by token alone), the leader
// commits target2, and M — whose pending view is still target1 under the
// same token — installs target1. Two adapters end up committed to the
// same (leader, version) incarnation with different memberships. A fresh
// token makes stale acks and stale pending views unmatchable.
func (r *twoPCRound) retarget(target amg.Membership) {
	p := r.l.p
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	// Isolation guard: if every other member of an established group went
	// silent at once, the overwhelmingly likely explanation is that *we*
	// were cut off (moved to another VLAN, or partitioned) — not that the
	// whole group died. Declaring a majority dead from the minority side
	// would flood Central with false failures (§3.1's moved-leader case),
	// so we abandon the lineage and reform as a fresh singleton instead.
	if len(target.Members) <= 1 && p.view.Size() > 2 && p.view.Contains(p.self) {
		r.done = true
		r.l.round = nil
		p.isolationOrphan()
		return
	}
	target.Version = r.target.Version
	r.token = p.d.token()
	p.trace(&trace.Record{Kind: trace.KRetarget, Group: p.self,
		Version: target.Version, Token: r.token, Count: uint32(len(target.Members))})
	r.target = target
	r.waiting = make(map[transport.IP]bool)
	r.resends = 0
	r.shrinks++
	if r.shrinks > p.view.Size()+p.d.cfg.CommitRetries {
		// Pathological: fall back to a singleton.
		r.target = amg.New(target.Version, []wire.Member{p.selfMember()})
		r.target.Version = target.Version
	}
	r.send()
}

// commit finalizes phase two.
func (r *twoPCRound) commit() {
	p := r.l.p
	r.done = true
	r.l.round = nil
	p.trace(&trace.Record{Kind: trace.KCommitSent, Group: p.self,
		Version: r.target.Version, Token: r.token, Count: uint32(len(r.target.Members))})
	fan := r.l.fan[:0]
	for _, m := range r.target.Members {
		if m.IP != p.self {
			fan = append(fan, m.IP)
		}
	}
	r.l.sendFan(fan, &wire.Commit{Leader: p.self, Version: r.target.Version, Token: r.token, Members: r.target.Members})
	for _, ip := range r.deaths {
		if !r.target.Contains(ip) {
			p.trace(&trace.Record{Kind: trace.KDeathCommitted, Peer: ip, Group: p.self,
				Version: r.target.Version, Token: r.token})
		}
	}
	p.commitView(r.target)
	if len(r.l.dirtyJoins) > 0 || len(r.l.dirtyRemoves) > 0 {
		r.l.scheduleChange()
	}
}

// --- suspicion verification (leader side) ---

type suspicionState struct {
	l         *leaderState
	suspect   transport.IP
	reporters map[transport.IP]bool
	window    transport.Timer
	probing   bool
}

func (s *suspicionState) cancel() {
	if s.window != nil {
		s.window.Stop()
		s.window = nil
	}
}

// onSuspicion collects reports about a member and decides when to verify.
// With the bidirectional ring the leader waits for both neighbors (or the
// consensus window) before probing; otherwise it probes at once. Paper §3.
func (l *leaderState) onSuspicion(m *wire.Suspect) {
	p := l.p
	if m.Reason == wire.ReasonStaleView {
		// Not a liveness report: a member saw the subject heartbeating
		// under a different group identity. Refresh it (or evict it if it
		// is not ours at all) — no death machinery.
		if p.view.Contains(m.Suspect) {
			l.refreshMember(m.Suspect)
		} else {
			l.evictStray(m.Suspect)
		}
		return
	}
	if m.Suspect == p.self || !p.view.Contains(m.Suspect) {
		return
	}
	if _, pending := l.dirtyRemoves[m.Suspect]; pending {
		return // removal already scheduled
	}
	if p.d.cfg.UnsafeSkipVerify {
		// Fault injection for the simulation-testing harness: believe the
		// report outright, skipping the verification probe the paper
		// demands. The invariant engine must flag the resulting commit.
		l.queueRemove(m.Suspect)
		return
	}
	s := l.suspicions[m.Suspect]
	if s == nil {
		s = &suspicionState{l: l, suspect: m.Suspect, reporters: make(map[transport.IP]bool)}
		l.suspicions[m.Suspect] = s
		if p.d.cfg.Consensus {
			s.window = p.clock().AfterFunc(p.d.cfg.ConsensusWindow, func() {
				// Adjacent failures can leave only one live witness; the
				// leader investigates on its own after the window.
				s.window = nil
				s.verify()
			})
		}
	}
	s.reporters[m.Reporter] = true
	if !p.d.cfg.Consensus || len(s.reporters) >= 2 {
		s.verify()
	}
}

func (s *suspicionState) verify() {
	if s.probing {
		return
	}
	s.probing = true
	s.cancel()
	l, suspect := s.l, s.suspect
	p := l.p
	p.verifySuspect(suspect, func(res probeResult) {
		if p.lead != l || l.suspicions[suspect] != s {
			return
		}
		delete(l.suspicions, suspect)
		switch {
		case res.dead:
			l.queueRemove(suspect)
		case res.leader == p.self || res.leader == l.prevLeader:
			// Alive and (modulo a lost Commit) one of ours: the report was
			// false (the paper: "If the reported failure proves to be
			// false, it is ignored"). Refresh its view in case it is the
			// stale one.
			p.trace(&trace.Record{Kind: trace.KFalseAccusation, Peer: suspect,
				Group: p.self, Version: p.view.Version})
			if res.version < p.view.Version {
				l.refreshMember(suspect)
			}
		default:
			// Alive but following another leader: it moved segments. It
			// is not dead — remove it without a death declaration.
			l.queueDepart(suspect)
		}
	})
}

// evictStray tells an adapter outside our committed view to abandon its
// stale membership and rediscover the segment. Rate-limited per target.
func (l *leaderState) evictStray(ip transport.IP) {
	p := l.p
	if ip == p.self || p.view.Contains(ip) {
		return
	}
	now := p.now()
	if at, ok := l.evictAt[ip]; ok && now-at < 2*time.Second {
		return
	}
	l.evictAt[ip] = now
	p.sendMember(ip, &wire.Evict{Leader: p.self, Target: ip, Version: p.view.Version})
}

// refreshMember re-sends the current committed view to one member,
// rate-limited, healing lost Commits.
func (l *leaderState) refreshMember(ip transport.IP) {
	p := l.p
	now := p.now()
	if at, ok := l.refreshAt[ip]; ok && now-at < time.Second {
		return
	}
	l.refreshAt[ip] = now
	p.sendMember(ip, &wire.Commit{Leader: p.self, Version: p.view.Version, Token: 0, Members: p.view.Members})
}

// --- reporting triggers ---

// viewCommitted runs after every commit while leading.
func (l *leaderState) viewCommitted(v amg.Membership) {
	// Drop suspicion state about departed members.
	for ip, s := range l.suspicions { // order-free: cancel only stops a timer
		if !v.Contains(ip) {
			s.cancel()
			delete(l.suspicions, ip)
		}
	}
	maps.DeleteFunc(l.refreshAt, func(ip transport.IP, _ time.Duration) bool { return !v.Contains(ip) })
	maps.DeleteFunc(l.evictAt, func(ip transport.IP, _ time.Duration) bool { return v.Contains(ip) })
	if !l.reportedValid {
		// First report of this leadership term waits until membership has
		// been quiet for Ts (paper §4.1's stabilization term).
		l.resetStableTimer()
		return
	}
	joined, left := v.Diff(l.reported)
	if len(joined) == 0 && len(left) == 0 {
		return
	}
	l.reported = v
	l.p.d.reporter.enqueue(&wire.Report{
		Leader:  l.p.self,
		Segment: l.p.segmentHint(),
		Version: v.Version,
		Members: joined,
		Left:    left,
	})
}

// resetStableTimer (re)arms the Ts quiet wait before the first report.
func (l *leaderState) resetStableTimer() {
	if l.stableTimer != nil {
		l.stableTimer.Stop()
	}
	l.stableTimer = l.p.clock().AfterFunc(l.p.d.cfg.StableWait, func() {
		l.stableTimer = nil
		if l.p.state != stLeader || l.p.lead != l {
			return
		}
		l.reported = l.p.view
		l.reportedValid = true
		l.p.d.reporter.enqueue(&wire.Report{
			Leader:      l.p.self,
			Segment:     l.p.segmentHint(),
			Version:     l.p.view.Version,
			Full:        true,
			PrevLeader:  l.prevLeader,
			PrevVersion: l.prevVersion,
			Fresh:       l.fresh,
			Members:     l.p.view.Members,
		})
		l.fresh = false
	})
}
