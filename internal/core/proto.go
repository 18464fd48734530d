package core

import (
	"time"

	"repro/internal/amg"
	"repro/internal/detect"
	"repro/internal/ordered"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// state is an adapter's protocol phase.
type state int

const (
	// stIdle: not started, crashed, or administratively disabled.
	stIdle state = iota
	// stBeaconing: initial discovery — multicasting BEACONs, collecting.
	stBeaconing
	// stDeferring: heard a higher IP during the phase; waiting for its
	// two-phase commit to claim us.
	stDeferring
	// stMember: committed into a group led by someone else.
	stMember
	// stLeader: leading a group (possibly a singleton).
	stLeader
)

func (s state) String() string {
	return [...]string{"idle", "beaconing", "deferring", "member", "leader"}[s]
}

// pendingView is a prepared-but-uncommitted membership.
type pendingView struct {
	view   amg.Membership
	leader transport.IP
	token  uint64
	timer  transport.Timer
}

// adapterProto runs the GulfStream protocol for one network adapter.
type adapterProto struct {
	d     *Daemon
	ep    transport.Endpoint
	self  transport.IP
	index uint8

	state    state
	disabled bool

	// discovery
	heard       heardSet       // peers heard this beacon phase
	beaconMsg   wire.Beacon    // reused each sendBeacon, so beacons don't allocate
	rxHB        wire.Heartbeat // reused receive scratch (heartbeat plane)
	beaconTick  transport.Timer
	phaseTimer  transport.Timer
	deferTimer  transport.Timer
	beaconEvery time.Duration

	// membership
	view     amg.Membership
	pending  *pendingView
	detector detect.Detector
	// ledFloor is the highest view version this adapter has ever
	// committed as leader of its own lineage. An adapter that demotes
	// (absorbed by a merge) and later re-promotes (leader takeover)
	// derives its next version from the absorbing group's counter, which
	// may sit below numbers its own lineage already used — and reusing
	// (self, version) for a different membership makes stale messages
	// from the abandoned incarnation indistinguishable from current ones.
	// Every own-lineage version must exceed this floor.
	ledFloor uint64

	// liveness of the group as seen from here
	lastGroupActivity time.Duration
	orphanTick        transport.Timer
	// escalation state: first unresolved suspicion since the last commit,
	// and whether a leader/successor probe chain is in flight.
	firstSuspicionAt time.Duration
	escalating       bool

	// verification probes this adapter is waiting on (leader/successor)
	probes     map[uint64]*probeState
	nextNonce  uint64
	lead       *leaderState
	refreshLog map[transport.IP]time.Duration // rate-limit view refreshes
}

func newAdapterProto(d *Daemon, ep transport.Endpoint, index uint8) *adapterProto {
	return &adapterProto{d: d, ep: ep, self: ep.LocalIP(), index: index}
}

func (p *adapterProto) isAdmin() bool { return p.index == p.d.cfg.AdminIndex }

func (p *adapterProto) clock() transport.Clock { return p.d.clock }

func (p *adapterProto) now() time.Duration { return p.d.clock.Now() }

// start (re)initializes the adapter and opens the beacon phase.
func (p *adapterProto) start() {
	p.shutdown() // clear any leftovers from a previous life
	p.trace(&trace.Record{Kind: trace.KStarted, Token: uint64(p.d.incarnation)})
	p.disabled = false
	p.state = stBeaconing
	p.heard = heardSet{}
	p.view = amg.Membership{}
	p.probes = make(map[uint64]*probeState)
	p.refreshLog = make(map[transport.IP]time.Duration)
	p.lastGroupActivity = p.now()

	p.ep.JoinGroup(transport.BeaconGroup, transport.PortBeacon)
	p.ep.Bind(transport.PortBeacon, p.onBeaconPacket)
	p.ep.Bind(transport.PortMember, p.onMemberPacket)
	p.ep.Bind(transport.PortHeartbeat, p.onHeartbeatPacket)
	if p.isAdmin() {
		p.ep.Bind(transport.PortReport, p.d.handleReportPlane)
		// Admin adapters also listen for Central's multicast resync pull.
		p.ep.JoinGroup(transport.BeaconGroup, transport.PortReport)
		// And for the journal stream, in case they are the warm standby.
		p.ep.Bind(transport.PortJournal, p.d.handleJournalPlane)
	}

	p.detector = detect.New(p.d.cfg.Detector, p.d.cfg.DetectorParams, (*detectorEnv)(p))

	p.sendBeacon()
	p.beaconEvery = p.d.cfg.BeaconInterval
	p.beaconTick = p.clock().AfterFunc(p.beaconEvery, p.beaconLoop)
	p.phaseTimer = p.clock().AfterFunc(p.d.cfg.BeaconPhase, p.endBeaconPhase)
	p.orphanTick = p.clock().AfterFunc(p.d.cfg.DetectorParams.Interval, p.orphanCheck)
}

// shutdown cancels every timer and detaches the detector.
func (p *adapterProto) shutdown() {
	for _, t := range []*transport.Timer{&p.beaconTick, &p.phaseTimer, &p.deferTimer, &p.orphanTick} {
		if *t != nil {
			(*t).Stop()
			*t = nil
		}
	}
	p.dropPending()
	if p.detector != nil {
		p.detector.Stop()
		p.detector = nil
	}
	for _, ps := range p.probes { // order-free: stopping a timer schedules nothing
		if ps.timer != nil {
			ps.timer.Stop()
		}
	}
	p.probes = nil
	p.dropLeaderState()
	p.state = stIdle
}

// disable takes the adapter out of service administratively.
func (p *adapterProto) disable() {
	p.shutdown()
	p.disabled = true
}

// --- beaconing ---

func (p *adapterProto) sendBeacon() {
	b := &p.beaconMsg
	*b = wire.Beacon{
		Sender:      p.self,
		Node:        p.d.node,
		Incarnation: p.d.incarnation,
		Admin:       p.isAdmin(),
	}
	if p.state == stLeader || p.state == stMember {
		b.Leader = p.view.Leader()
		b.Version = p.view.Version
		b.Members = uint32(p.view.Size())
	}
	pkt := wire.NewPacket(b)
	_ = p.ep.Multicast(transport.PortBeacon,
		transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}, pkt.Bytes())
	pkt.Free()
	p.trace(&trace.Record{Kind: trace.KBeaconSent, Group: b.Leader, Version: b.Version})
}

func (p *adapterProto) beaconLoop() {
	if p.state != stBeaconing && p.state != stLeader {
		p.beaconTick = nil
		return
	}
	p.sendBeacon()
	p.beaconTick.Reset(p.beaconEvery)
}

// endBeaconPhase closes discovery: the highest IP heard (or self) leads.
func (p *adapterProto) endBeaconPhase() {
	p.phaseTimer = nil
	if p.state != stBeaconing {
		return
	}
	heard := p.heard
	p.heard = heardSet{} // only a beaconing adapter listens; start() opens the next phase
	if !heard.outranked {
		// Nobody heard is above us (the set holds only lower peers), so we
		// lead: two-phase commit over every ungrouped adapter we heard
		// (paper §2.1). Adapters already in groups come over through the
		// merge path instead, led by their own leaders.
		members := heard.appendUngrouped([]wire.Member{p.selfMember()})
		p.trace(&trace.Record{Kind: trace.KFormed, Count: uint32(len(members))})
		p.becomeLeader()
		p.lead.startChange(wire.OpForm, amg.New(1, members))
		return
	}
	// Defer AMG formation and leadership to the highest IP.
	p.state = stDeferring
	if p.beaconTick != nil {
		p.beaconTick.Stop()
		p.beaconTick = nil
	}
	p.deferTimer = p.clock().AfterFunc(p.d.cfg.DeferTimeout, p.deferExpired)
}

// deferExpired: nobody claimed us — form a singleton; merging will fold
// us into the segment's group.
func (p *adapterProto) deferExpired() {
	p.deferTimer = nil
	if p.state != stDeferring {
		return
	}
	p.becomeLeader()
	p.commitView(amg.New(1, []wire.Member{p.selfMember()}))
}

func (p *adapterProto) selfMember() wire.Member {
	return wire.Member{IP: p.self, Node: p.d.node, Index: p.index, Admin: p.isAdmin()}
}

// becomeLeader flips the adapter into the leader role.
func (p *adapterProto) becomeLeader() {
	if p.state == stLeader && p.lead != nil {
		return
	}
	p.state = stLeader
	p.lead = newLeaderState(p)
	if p.deferTimer != nil {
		p.deferTimer.Stop()
		p.deferTimer = nil
	}
	// Leaders keep beaconing (slower) so joiners and other groups find us.
	p.beaconEvery = p.d.cfg.LeaderBeaconInterval
	if p.beaconTick == nil {
		p.beaconTick = p.clock().AfterFunc(p.beaconEvery, p.beaconLoop)
	}
}

// dropLeaderState cancels all leader-side machinery.
func (p *adapterProto) dropLeaderState() {
	if p.lead == nil {
		return
	}
	p.lead.stop()
	p.lead = nil
}

// --- message entry points ---

func (p *adapterProto) onBeaconPacket(_, _ transport.Addr, payload []byte) {
	// stIdle alone implies deafness: Crash is the only way to clear
	// d.running and it shuts every proto down to stIdle first, so the
	// extra Daemon dereference (a cold cache line per delivery) is
	// redundant in the packet handlers. And once an adapter is a member
	// only its leader acts on beacons (paper §2.1), so a member does not
	// even decode them.
	if p.state == stIdle || p.state == stMember {
		return
	}
	// The beacon plane carries only Beacons, and the startup flood (every
	// adapter hears every beacon on its segment) must not allocate per
	// packet: the fixed fields decode onto the stack, and the node name
	// stays in the packet until someone is about to keep it.
	var b wire.Beacon
	node, err := wire.DecodeBeaconFixed(payload, &b)
	if err != nil {
		p.d.rxDropped(p.self, "beacon", err)
		return
	}
	if b.Sender == p.self {
		return
	}
	switch p.state {
	case stBeaconing:
		if p.d.tracer.Enabled() { // guard here: building the Record is not free at beacon rates
			p.trace(&trace.Record{Kind: trace.KBeaconHeard, Peer: b.Sender, Group: b.Leader, Version: b.Version})
		}
		// Beacons repeat every interval; only the first from a peer, or one
		// that says something new, is written down — with its node name,
		// which cannot change without an incarnation bump. Once a higher
		// address is heard this adapter will not lead, and phase end asks
		// nothing more of the set: one bit replaces it.
		switch {
		case p.heard.outranked:
		case b.Sender > p.self:
			p.heard = heardSet{outranked: true}
		default:
			if name := p.heard.put(b.Sender, b.Incarnation, b.Leader != 0, b.Admin); name != nil {
				*name = wire.InternString(node)
			}
		}
	case stDeferring:
		// A formed leader on our segment: ask to join directly rather than
		// waiting out the defer timeout.
		if b.Leader == b.Sender && b.Leader != 0 {
			p.sendMember(b.Sender, &wire.JoinRequest{
				From: p.self, Node: p.d.node, Index: p.index,
				Admin: p.isAdmin(), Incarnation: p.d.incarnation,
			})
		}
	case stLeader:
		p.onBeaconAsLeader(&b, node)
	}
}

// onBeaconAsLeader acts on a beacon heard while leading; node is the
// sender's name, still undecoded (see wire.DecodeBeaconFixed).
func (p *adapterProto) onBeaconAsLeader(b *wire.Beacon, node []byte) {
	switch {
	case b.Leader == 0:
		// Ungrouped adapter on our segment: absorb it.
		p.lead.queueJoin(wire.Member{IP: b.Sender, Node: wire.InternString(node), Admin: b.Admin})
	case b.Leader == b.Sender && b.Sender < p.self:
		// A lower-IP leader shares our segment. It may not have heard us
		// yet (asymmetric loss): nudge it with a unicast beacon so it
		// sends us its MergeOffer.
		nb := &wire.Beacon{
			Sender: p.self, Node: p.d.node, Incarnation: p.d.incarnation,
			Leader: p.self, Version: p.view.Version, Members: uint32(p.view.Size()),
			Admin: p.isAdmin(),
		}
		pkt := wire.NewPacket(nb)
		_ = p.ep.Unicast(transport.PortBeacon,
			transport.Addr{IP: b.Sender, Port: transport.PortBeacon}, pkt.Bytes())
		pkt.Free()
	case b.Leader == b.Sender && b.Sender > p.self:
		// Merging AMGs are led by the higher-IP leader: offer our members.
		p.sendMember(b.Sender, &wire.MergeOffer{
			From: p.self, Version: p.view.Version, Members: p.view.Members,
		})
	}
}

func (p *adapterProto) onMemberPacket(src, _ transport.Addr, payload []byte) {
	if p.state == stIdle { // see onBeaconPacket: stIdle implies !running
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		p.d.rxDropped(p.self, "member", err)
		return
	}
	switch m := msg.(type) {
	case *wire.Prepare:
		p.onPrepare(m)
	case *wire.PrepareAck:
		if p.lead != nil {
			p.lead.onPrepareAck(m)
		}
	case *wire.Commit:
		p.onCommit(m)
	case *wire.Abort:
		p.onAbort(m)
	case *wire.JoinRequest:
		if p.lead != nil {
			p.lead.queueJoin(wire.Member{IP: m.From, Node: m.Node, Index: m.Index, Admin: m.Admin})
		}
	case *wire.MergeOffer:
		if p.lead != nil && m.From < p.self {
			for _, mem := range m.Members {
				if mem.IP != p.self {
					p.lead.queueJoin(mem)
				}
			}
		}
	case *wire.Disable:
		// Central's conflict response, addressed to this node's admin
		// adapter; the target may be any adapter of the node.
		p.d.DisableAdapter(m.Target)
	case *wire.Evict:
		p.onEvict(m)
	}
	_ = src
}

// onEvict handles a leader's notice that we are not in its group. If the
// evictor plausibly owns our segment's group (it is our recorded leader,
// a member of our stale view, or a higher leader), our view is dead
// weight: abandon it and rediscover.
func (p *adapterProto) onEvict(m *wire.Evict) {
	if m.Target != p.self || p.state != stMember {
		return
	}
	cur := p.view.Leader()
	if m.Leader == cur || m.Leader > cur || p.view.Contains(m.Leader) {
		p.trace(&trace.Record{Kind: trace.KEvicted, Peer: m.Leader,
			Group: cur, Version: m.Version})
		p.isolationOrphan()
	}
}

func (p *adapterProto) onHeartbeatPacket(src, _ transport.Addr, payload []byte) {
	if p.state == stIdle { // see onBeaconPacket: stIdle implies !running
		return
	}
	from := src.IP
	// Ring heartbeats dominate the steady state; give them an
	// allocation-free path through a reused scratch message.
	if t, ok := wire.Peek(payload); ok && t == wire.THeartbeat {
		hb := &p.rxHB
		if err := wire.DecodeInto(payload, hb); err != nil {
			p.d.rxDropped(p.self, "heartbeat", err)
			return
		}
		p.noteActivity(hb.From)
		p.checkPeerView(hb.From, hb.Leader, hb.Version)
		if p.detector != nil {
			p.detector.Handle(from, hb)
		}
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		p.d.rxDropped(p.self, "heartbeat", err)
		return
	}
	switch m := msg.(type) {
	case *wire.Probe:
		ack := &wire.ProbeAck{From: p.self, Nonce: m.Nonce}
		if p.state == stMember || p.state == stLeader {
			ack.Leader = p.view.Leader()
			ack.Version = p.view.Version
		}
		p.sendHeartbeatPlane(from, ack)
		p.noteActivity(from)
		return
	case *wire.ProbeAck:
		p.onProbeAck(m)
		p.noteActivity(m.From)
		return
	case *wire.Suspect:
		if p.lead != nil && !p.view.Contains(m.Reporter) {
			p.lead.evictStray(m.Reporter)
		}
		p.onSuspect(m)
		p.noteActivity(m.Reporter)
		return
	case *wire.Heartbeat:
		p.noteActivity(m.From)
		p.checkPeerView(m.From, m.Leader, m.Version)
	case *wire.Ping:
		p.noteActivity(m.From)
		p.checkPeerView(m.From, m.Leader, 0)
	default:
		p.noteActivity(from)
	}
	if p.detector != nil {
		p.detector.Handle(from, msg)
	}
}

// checkPeerView compares a peer's self-declared group identity (claimed
// leader + version; version 0 = unknown) against ours and triggers the
// appropriate healing. Versions are per-lineage, so two same-numbered
// views under different leaders can coexist after overlapping merges —
// the leader comparison is what catches a member wedged on a parallel
// stale view whose ring happens to interlock with the real one.
func (p *adapterProto) checkPeerView(from, claimed transport.IP, version uint64) {
	if p.state != stMember && p.state != stLeader {
		return
	}
	if p.lead != nil {
		switch {
		case !p.view.Contains(from):
			// Traffic from an adapter outside our committed view: a member
			// we dropped while it was unreachable, still running its stale
			// ring. Tell it to re-form.
			p.lead.evictStray(from)
		case (claimed != 0 && claimed != p.self) || (version != 0 && version < p.view.Version):
			// One of our members follows an older lineage or an older
			// version of ours: push it the current view.
			p.lead.refreshMember(from)
		}
		return
	}
	// Member side: a peer of our group claiming a different leader — or
	// our own leader at an older version (it missed a commit and its ring
	// interlocks with ours, so it will never suspect anyone) — means the
	// peer is running a stale view. Report it to our leader (rate-
	// limited); if the peer is the stale one the leader refreshes it, and
	// if WE are the stale one, the peer's groupmates run the same check
	// against us from their side.
	if claimed == 0 || !p.view.Contains(from) {
		return
	}
	if claimed == p.view.Leader() && (version == 0 || version >= p.view.Version) {
		return // same lineage, same-or-newer view: nothing to heal here
	}
	now := p.now()
	if at, ok := p.refreshLog[from]; ok && now-at < 2*time.Second {
		return
	}
	p.refreshLog[from] = now
	p.sendHeartbeatPlane(p.view.Leader(), &wire.Suspect{
		Reporter: p.self, Suspect: from, Version: p.view.Version,
		Reason: wire.ReasonStaleView,
	})
}

// noteActivity marks group liveness from the perspective of this adapter.
func (p *adapterProto) noteActivity(from transport.IP) {
	if p.view.Contains(from) {
		p.lastGroupActivity = p.now()
	}
}

func (p *adapterProto) sendMember(dst transport.IP, m wire.Message) {
	pkt := wire.NewPacket(m)
	_ = p.ep.Unicast(transport.PortMember, transport.Addr{IP: dst, Port: transport.PortMember}, pkt.Bytes())
	pkt.Free()
}

func (p *adapterProto) sendHeartbeatPlane(dst transport.IP, m wire.Message) {
	pkt := wire.NewPacket(m)
	_ = p.ep.Unicast(transport.PortHeartbeat, transport.Addr{IP: dst, Port: transport.PortHeartbeat}, pkt.Bytes())
	pkt.Free()
}

// --- member-side 2PC ---

// acceptablePreparer decides whether src may rewrite our membership:
// our current leader, any higher-IP leader (merge absorption), our
// committed successor (leader failover), or anyone while we are ungrouped.
func (p *adapterProto) acceptablePreparer(src transport.IP) bool {
	switch p.state {
	case stBeaconing, stDeferring:
		return true
	case stMember, stLeader:
		cur := p.view.Leader()
		return src == cur || src > cur || src == p.view.Successor()
	default:
		return false
	}
}

func (p *adapterProto) onPrepare(m *wire.Prepare) {
	if m.Leader == p.self {
		return // our own broadcast looped back
	}
	ok := p.acceptablePreparer(m.Leader)
	if ok && m.Leader == p.view.Leader() && m.Version <= p.view.Version {
		ok = false // stale round from our own leader
	}
	// The new view must include us.
	included := false
	for _, mem := range m.Members {
		if mem.IP == p.self {
			included = true
			break
		}
	}
	if !included {
		ok = false
	}
	det := ""
	if !ok {
		det = "rejected"
	}
	p.trace(&trace.Record{Kind: trace.KPrepareRecv, Peer: m.Leader, Group: m.Leader,
		Version: m.Version, Token: m.Token, Detail: det})
	ack := &wire.PrepareAck{From: p.self, Leader: m.Leader, Version: m.Version, Token: m.Token, OK: ok}
	p.sendMember(m.Leader, ack)
	if !ok {
		return
	}
	p.dropPending()
	pv := &pendingView{
		view:   amg.New(m.Version, m.Members),
		leader: m.Leader,
		token:  m.Token,
	}
	// New() renumbers from scratch; force the wire version.
	pv.view.Version = m.Version
	p.pending = pv
	pv.timer = p.clock().AfterFunc(p.d.cfg.PendingTimeout, func() {
		if p.pending == pv {
			p.pending = nil
		}
	})
	p.noteActivity(m.Leader)
}

func (p *adapterProto) onCommit(m *wire.Commit) {
	if m.Leader == p.self {
		return
	}
	if p.pending != nil && p.pending.token == m.Token && p.pending.leader == m.Leader {
		pv := p.dropPending()
		p.trace(&trace.Record{Kind: trace.KCommitRecv, Peer: m.Leader, Group: m.Leader,
			Version: m.Version, Token: m.Token})
		p.adoptView(pv.view, m.Leader)
		return
	}
	// Direct install (view refresh / lost Prepare): the Commit carries the
	// membership; accept it under the same authority rules.
	if len(m.Members) == 0 || !p.acceptablePreparer(m.Leader) {
		return
	}
	if m.Leader == p.view.Leader() && m.Version <= p.view.Version {
		return
	}
	v := amg.New(m.Version, m.Members)
	v.Version = m.Version
	if !v.Contains(p.self) {
		return
	}
	p.trace(&trace.Record{Kind: trace.KCommitRecv, Peer: m.Leader, Group: m.Leader,
		Version: m.Version, Token: m.Token, Detail: "direct"})
	p.adoptView(v, m.Leader)
}

// adoptView installs a view committed by another adapter (we are not its
// leader — if we led a group before, we are being absorbed and demote).
func (p *adapterProto) adoptView(v amg.Membership, leader transport.IP) {
	if v.Leader() != leader {
		// Malformed: the committing leader must be the highest member.
		return
	}
	if p.lead != nil {
		// Demotion: anything we were about to tell Central about our own
		// leadership term is now stale and must not be delivered late.
		p.d.reporter.dropLeader(p.self)
	}
	p.dropLeaderState()
	p.state = stMember
	if p.beaconTick != nil {
		p.beaconTick.Stop()
		p.beaconTick = nil
	}
	if p.deferTimer != nil {
		p.deferTimer.Stop()
		p.deferTimer = nil
	}
	p.commitView(v)
}

// dropPending ends the adapter's vote, if it holds one: the expiry timer
// stops and the prepared view is returned (nil when there was none). Every
// way a vote ends goes through here, except the expiry timer itself.
func (p *adapterProto) dropPending() *pendingView {
	pv := p.pending
	if pv != nil && pv.timer != nil {
		pv.timer.Stop()
	}
	p.pending = nil
	return pv
}

func (p *adapterProto) onAbort(m *wire.Abort) {
	if p.pending != nil && p.pending.token == m.Token && p.pending.leader == m.Leader {
		p.dropPending()
		p.trace(&trace.Record{Kind: trace.KAbortRecv, Peer: m.Leader, Group: m.Leader, Token: m.Token})
	}
}

// commitView finalizes a membership view locally (both roles); every
// install comes through here, so the trace carries each view's content.
// A leader of the view first traces its joins and removes against the
// view it held; the KViewCommit, captured after the install (a sink that
// reads the daemon sees the committed view), carries its members digest.
func (p *adapterProto) commitView(v amg.Membership) {
	tracing := p.d.tracer.Enabled()
	if tracing && v.Leader() == p.self {
		joined, left := v.Diff(p.view)
		for _, m := range joined {
			p.trace(&trace.Record{Kind: trace.KViewJoin, Peer: m.IP, Group: p.self, Version: v.Version})
		}
		for _, ip := range left {
			p.trace(&trace.Record{Kind: trace.KViewRemove, Peer: ip, Group: p.self, Version: v.Version})
		}
	}
	p.view = v
	if v.Leader() == p.self && v.Version > p.ledFloor {
		p.ledFloor = v.Version
	}
	if tracing {
		digest := trace.EmptyDigest
		for _, m := range v.Members {
			digest = digest.Add(m.IP)
		}
		p.trace(&trace.Record{Kind: trace.KViewCommit, Group: v.Leader(),
			Version: v.Version, Count: uint32(v.Size()), Digest: digest})
	}
	p.lastGroupActivity = p.now()
	p.firstSuspicionAt = 0 // a commit proves the leadership is working
	if p.detector != nil {
		p.detector.Reconfigure(v)
	}
	if p.state == stLeader && p.lead != nil {
		p.lead.viewCommitted(v)
	}
	if p.isAdmin() {
		p.d.adminViewChanged()
	}
}

// --- suspicion routing & verification ---

// reportSuspect is called by the detector (via detectorEnv) when a peer
// goes silent. The paper's order of operations: loopback-test our own
// adapter first, then tell the leader — or the successor when the suspect
// IS the leader.
func (p *adapterProto) reportSuspect(suspect transport.IP, reason wire.SuspectReason) {
	if p.state != stMember && p.state != stLeader {
		return
	}
	if !p.ep.Loopback() {
		// Our own adapter is broken; blaming the neighbor would be the
		// §3 false-report flaw. Stay quiet and let others detect us.
		p.trace(&trace.Record{Kind: trace.KLoopbackFailed, Peer: suspect, Detail: reason.String()})
		return
	}
	p.trace(&trace.Record{Kind: trace.KSuspicionRaised, Peer: suspect,
		Group: p.view.Leader(), Version: p.view.Version, Detail: reason.String()})
	if p.state == stMember && p.firstSuspicionAt == 0 {
		p.firstSuspicionAt = p.now()
	}
	target := p.view.Leader()
	if suspect == target {
		target = p.view.Successor()
	}
	if target == 0 {
		return
	}
	msg := &wire.Suspect{Reporter: p.self, Suspect: suspect, Version: p.view.Version, Reason: reason}
	if target == p.self {
		p.onSuspect(msg)
		return
	}
	p.sendHeartbeatPlane(target, msg)
}

func (p *adapterProto) onSuspect(m *wire.Suspect) {
	if !p.view.Contains(m.Suspect) {
		return
	}
	p.trace(&trace.Record{Kind: trace.KSuspicionRecv, Peer: m.Suspect,
		Group: p.view.Leader(), Version: m.Version, Detail: m.Reason.String()})
	switch {
	case p.state == stLeader:
		p.lead.onSuspicion(m)
	case p.state == stMember && p.self == p.view.Successor() && m.Suspect == p.view.Leader():
		// Successor verifies the leader's death (paper §2.1).
		p.verifySuspect(m.Suspect, func(res probeResult) {
			if p.state != stMember || m.Suspect != p.view.Leader() {
				return
			}
			if res.dead || res.leader != m.Suspect {
				// Dead, or alive but no longer leading this group (it was
				// moved away): either way the group needs a new leader.
				p.takeOverLeadership()
			}
		})
	}
}

// takeOverLeadership promotes the successor after a verified leader death.
func (p *adapterProto) takeOverLeadership() {
	oldLeader := p.view.Leader()
	oldVersion := p.view.Version
	p.trace(&trace.Record{Kind: trace.KLeaderTakeover, Peer: oldLeader,
		Group: oldLeader, Version: oldVersion})
	p.becomeLeader()
	// Our full report supersedes the old group (by leader AND version —
	// the address alone is ambiguous if that leader re-formed elsewhere).
	p.lead.prevLeader = oldLeader
	p.lead.prevVersion = oldVersion
	p.lead.queueRemove(oldLeader)
}

// probeResult is the outcome of a direct verification probe.
type probeResult struct {
	dead bool
	// For a live target, its self-declared membership.
	leader  transport.IP
	version uint64
}

type probeState struct {
	target  transport.IP
	left    int
	timer   transport.Timer
	verdict func(probeResult)
}

// verifySuspect probes target directly; the verdict reports death or the
// live target's current allegiance.
func (p *adapterProto) verifySuspect(target transport.IP, verdict func(probeResult)) {
	p.nextNonce++
	nonce := p.nextNonce
	ps := &probeState{target: target, left: p.d.cfg.ProbeRetries, verdict: verdict}
	p.probes[nonce] = ps
	p.sendProbe(nonce, ps)
}

func (p *adapterProto) sendProbe(nonce uint64, ps *probeState) {
	p.trace(&trace.Record{Kind: trace.KProbeSent, Peer: ps.target, Token: nonce})
	p.sendHeartbeatPlane(ps.target, &wire.Probe{From: p.self, Nonce: nonce})
	ps.timer = p.clock().AfterFunc(p.d.cfg.ProbeTimeout, func() {
		cur, ok := p.probes[nonce]
		if !ok || cur != ps {
			return
		}
		if ps.left > 0 {
			ps.left--
			p.sendProbe(nonce, ps)
			return
		}
		delete(p.probes, nonce)
		p.trace(&trace.Record{Kind: trace.KVerdictDead, Peer: ps.target, Token: nonce})
		ps.verdict(probeResult{dead: true})
	})
}

func (p *adapterProto) onProbeAck(m *wire.ProbeAck) {
	// In the order the probes went out (nonces ascend): each verdict is
	// traced and acted on, and an earlier one may end a later probe.
	for _, nonce := range ordered.Keys(p.probes) {
		ps := p.probes[nonce]
		if ps == nil || ps.target != m.From {
			continue
		}
		if ps.timer != nil {
			ps.timer.Stop()
		}
		delete(p.probes, nonce)
		p.trace(&trace.Record{Kind: trace.KVerdictAlive, Peer: m.From,
			Group: m.Leader, Version: m.Version, Token: nonce})
		ps.verdict(probeResult{leader: m.Leader, version: m.Version})
	}
}

// --- orphan detection ---

// orphanCheck notices that the group has gone completely silent — the
// signature of this adapter having been moved to another VLAN (§3.1) or
// of a catastrophic partition. The adapter reverts to a singleton and
// beacons; the new segment's leader absorbs it.
func (p *adapterProto) orphanCheck() {
	if p.state == stIdle {
		p.orphanTick = nil
		return
	}
	defer func() {
		// Re-arm by Reset: the body may have shut the adapter down (nil
		// timer) or restarted it (fresh timer — Reset just re-times it).
		if p.state != stIdle && p.orphanTick != nil {
			p.orphanTick.Reset(p.d.cfg.DetectorParams.Interval)
		} else {
			p.orphanTick = nil
		}
	}()
	grouped := (p.state == stMember || p.state == stLeader) && p.view.Size() > 1
	if !grouped {
		return
	}
	if p.now()-p.lastGroupActivity > p.d.cfg.OrphanTimeout {
		p.isolationOrphan()
		return
	}
	// Escalation (paper §3.1): our suspicion reports have produced no
	// recommit. Check the leader directly; if it is unreachable, try the
	// successor; if both are, we — not they — are the ones cut off.
	if p.state == stMember && p.firstSuspicionAt > 0 && !p.escalating &&
		p.now()-p.firstSuspicionAt > p.d.cfg.EscalationPatience {
		p.escalateSuspicion()
	}
}

// escalateSuspicion probes the leader, then the successor, and orphans if
// neither is reachable.
func (p *adapterProto) escalateSuspicion() {
	p.escalating = true
	leader := p.view.Leader()
	p.verifySuspect(leader, func(res probeResult) {
		// firstSuspicionAt == 0 means a commit landed while the probe was
		// in flight: leadership is demonstrably working, the verdict is
		// stale. Acting on it would orphan a freshly healed member.
		if p.state != stMember || p.view.Leader() != leader || p.firstSuspicionAt == 0 {
			p.escalating = false
			return
		}
		if !res.dead && res.leader == leader {
			// The leader answers and still leads; it will resolve the
			// suspicions in its own time. Restart the patience window.
			p.escalating = false
			p.firstSuspicionAt = p.now()
			return
		}
		if !res.dead && res.leader != leader {
			// The leader is alive but follows someone else now: the group
			// we believe in no longer exists. Reform and rediscover.
			p.escalating = false
			p.isolationOrphan()
			return
		}
		// Leader unreachable.
		succ := p.view.Successor()
		if succ == p.self {
			p.escalating = false
			p.takeOverLeadership()
			return
		}
		// Make sure the successor knows, and check whether we can even
		// reach it.
		p.sendHeartbeatPlane(succ, &wire.Suspect{
			Reporter: p.self, Suspect: leader, Version: p.view.Version,
			Reason: wire.ReasonProbeTimeout,
		})
		p.verifySuspect(succ, func(res2 probeResult) {
			p.escalating = false
			// Same staleness guards as above: a commit during the probe (or
			// a leader change) supersedes whatever this verdict says. The
			// original code checked only the state and would orphan a member
			// that had just been healed by a takeover or refresh commit.
			if p.state != stMember || p.view.Leader() != leader || p.firstSuspicionAt == 0 {
				return
			}
			switch {
			case res2.dead:
				// We can reach neither the leader nor the successor: we
				// are the one cut off. Become a leader and beacon.
				p.isolationOrphan()
			case res2.leader == succ || res2.leader == leader:
				// The successor is taking (or about to take) over; its
				// commit will reach us. Restart the patience window.
				p.firstSuspicionAt = p.now()
			default:
				// The successor too has moved on: the group is gone.
				p.isolationOrphan()
			}
		})
	})
}

// isolationOrphan abandons the current group: the adapter has lost
// contact with everyone (moved VLAN, or partitioned away) and reforms as
// a fresh singleton leader. The lineage break is flagged so Central does
// not misread the reformation as the old group dying.
func (p *adapterProto) isolationOrphan() {
	p.dropPending() // a vote cast under the old lineage must not install later
	p.trace(&trace.Record{Kind: trace.KOrphaned,
		Group: p.view.Leader(), Version: p.view.Version})
	// The new version jumps beyond anything the old group used — or
	// anything this adapter's own earlier lineage used, if that counter
	// ran higher — so stale messages cannot confuse a later rejoin.
	oldVersion := p.view.Version
	if p.ledFloor > oldVersion {
		oldVersion = p.ledFloor
	}
	if p.lead != nil {
		p.d.reporter.dropLeader(p.self)
	}
	p.dropLeaderState()
	p.becomeLeader()
	p.lead.fresh = true
	v := amg.New(oldVersion+1000, []wire.Member{p.selfMember()})
	p.commitView(v)
}
