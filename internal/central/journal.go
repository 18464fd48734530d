package central

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// State journaling and the warm-standby stream.
//
// An active Central appends every committed view transition (group
// updates, adapter/node/switch state flips, expected moves) to its
// journal and streams the records to the next-in-line administrative
// adapter over the journal plane (PortJournal). When the active Central
// dies, its successor replays the journal it accumulated and activates
// with a populated view: instead of the cold-start 3× multicast resync
// pull — which makes every leader in the farm re-send full reports — it
// sends at most one unicast verification request per group whose state
// did not arrive live over the stream.

// streamRetry paces retransmission of unacknowledged journal records.
const streamRetry = time.Second

// stream is the sender-side state of the warm-standby stream.
type stream struct {
	peer     transport.IP // current standby (0: none elected yet)
	acked    uint64       // cumulative ack from the standby
	snapSeq  uint64       // seq of the bootstrap snapshot in flight
	needSnap bool         // standby has not confirmed the bootstrap yet
	pending  []journal.Record
	timer    transport.Timer
}

// SetJournal attaches a state journal. Must be called before the hosting
// daemon starts; the same journal keeps accumulating whether this
// instance is active (it appends) or standing by (it ingests the
// stream).
func (c *Central) SetJournal(j *journal.Journal) { c.jr = j }

// Journal returns the attached journal, nil if none.
func (c *Central) Journal() *journal.Journal { return c.jr }

func (c *Central) journaling() bool { return c.jr != nil && c.active }

// --- commit helpers: journal a transition and feed the stream ---

func (c *Central) jGroup(g *group) {
	if !c.journaling() {
		return
	}
	members := make([]wire.Member, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m)
	}
	c.streamRecord(c.jr.GroupUpdate(c.clock.Now(), g.leader, g.version, g.src, members))
}

func (c *Central) jGroupRemove(leader transport.IP) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.GroupRemove(c.clock.Now(), leader))
}

func (c *Central) jAdapter(info adapterInfo) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.AdapterFlip(c.clock.Now(), info.member, info.alive, info.group, info.diedAt))
}

func (c *Central) jNode(node string, dead bool) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.NodeFlip(c.clock.Now(), node, dead))
}

func (c *Central) jSwitch(name string, dead bool) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.SwitchFlip(c.clock.Now(), name, dead))
}

func (c *Central) jMoveExpect(ip transport.IP, deadline time.Duration) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.MoveExpect(c.clock.Now(), ip, deadline))
}

func (c *Central) jMoveDone(ip transport.IP) {
	if !c.journaling() {
		return
	}
	c.streamRecord(c.jr.MoveDone(c.clock.Now(), ip))
}

// --- restore on activation ---

// installRestored rebuilds the live view from the journal's folded state.
// It reports whether there was anything to restore.
func (c *Central) installRestored() bool {
	st := c.jr.State()
	if len(st.Groups) == 0 {
		return false
	}
	c.groups = make(map[transport.IP]*group, len(st.Groups))
	for leader, gs := range st.Groups {
		g := &group{
			leader:  leader,
			version: gs.Version,
			src:     gs.Src,
			members: make(map[transport.IP]wire.Member, len(gs.Members)),
		}
		for _, m := range gs.Members {
			g.members[m.IP] = m
		}
		c.groups[leader] = g
	}
	c.adapters = make(map[transport.IP]adapterInfo, len(st.Adapters))
	c.nodesSeen = make(map[string][]transport.IP)
	for ip, a := range st.Adapters {
		c.adapters[ip] = adapterInfo{member: a.Member, alive: a.Alive, group: a.Group, diedAt: a.DiedAt}
		c.noteSeen(a.Member.Node, ip)
	}
	for _, g := range c.groups {
		for ip, m := range g.members {
			c.noteSeen(m.Node, ip)
		}
	}
	c.nodeDead = make(map[string]bool, len(st.DeadNodes))
	for n := range st.DeadNodes {
		c.nodeDead[n] = true
	}
	c.switchDead = make(map[string]bool, len(st.DeadSwitches))
	for n := range st.DeadSwitches {
		c.switchDead[n] = true
	}
	c.expectedMoves = make(map[transport.IP]time.Duration, len(st.ExpectedMoves))
	for ip, dl := range st.ExpectedMoves {
		c.expectedMoves[ip] = dl
	}
	return true
}

// verifyRestored sends one unicast verification ResyncRequest per group
// whose state did NOT arrive live over the standby stream this process
// lifetime. Streamed state is exactly what the failed Central had
// committed, so it is trusted as-is; state loaded from disk may be
// arbitrarily stale and gets re-confirmed by its reporting daemon.
func (c *Central) verifyRestored() {
	st := c.jr.State()
	// In leader order, not the map's: each request draws its delivery
	// jitter from the simulation's one random stream, so the order they
	// are sent in decides every later event's timing.
	leaders := make([]transport.IP, 0, len(c.groups))
	for leader := range c.groups {
		leaders = append(leaders, leader)
	}
	slices.Sort(leaders)
	for _, leader := range leaders {
		if gs := st.Groups[leader]; gs != nil && gs.Streamed {
			continue
		}
		c.requestGroupResync(c.groups[leader])
	}
}

// --- sender side of the stream ---

// successor returns the warm standby: the highest non-self member of the
// administrative AMG (the group this Central's own admin adapter leads).
// That adapter wins the next election if we die, so it is the one to
// keep warm.
func (c *Central) successor() transport.IP {
	if c.ep == nil {
		return 0
	}
	self := c.ep.LocalIP()
	g := c.groups[self]
	if g == nil {
		return 0
	}
	var best transport.IP
	for ip := range g.members {
		if ip != self && ip > best {
			best = ip
		}
	}
	return best
}

// refreshStream recomputes the standby after a view change and, when it
// moved, restarts the stream with a snapshot bootstrap.
func (c *Central) refreshStream() {
	if !c.journaling() || c.ep == nil {
		return
	}
	next := c.successor()
	if next == c.stream.peer {
		return
	}
	c.stream.peer = next
	c.stream.pending = nil
	c.stream.acked = 0
	c.stream.needSnap = next != 0
	if next != 0 {
		c.sendSnapshot()
		c.armStreamTimer()
	}
}

// resetStream forgets the standby (used on deactivation).
func (c *Central) resetStream() {
	c.stream.peer = 0
	c.stream.pending = nil
	c.stream.acked = 0
	c.stream.needSnap = false
	if c.stream.timer != nil {
		c.stream.timer.Stop()
		c.stream.timer = nil
	}
}

// streamRecord enqueues one freshly committed record for the standby.
func (c *Central) streamRecord(rec journal.Record) {
	if c.stream.peer == 0 {
		return
	}
	c.stream.pending = append(c.stream.pending, rec)
	c.sendAppend(rec)
	c.armStreamTimer()
}

func (c *Central) sendAppend(rec journal.Record) {
	c.trace(trace.Record{Kind: trace.KJournalStreamed, Peer: c.stream.peer,
		Version: rec.Epoch, Token: rec.Seq})
	pkt := wire.NewPacket(&wire.JournalAppend{
		From:    c.ep.LocalIP(),
		Epoch:   rec.Epoch,
		Seq:     rec.Seq,
		Payload: journal.EncodeRecord(rec),
	})
	_ = c.ep.Unicast(transport.PortJournal,
		transport.Addr{IP: c.stream.peer, Port: transport.PortJournal}, pkt.Bytes())
	pkt.Free()
}

// sendSnapshot bootstraps (or re-bases) the standby with the full folded
// state at the journal's current position.
func (c *Central) sendSnapshot() {
	rec := c.jr.SnapshotRecord(c.clock.Now())
	c.stream.snapSeq = rec.Seq
	c.sendAppend(rec)
}

func (c *Central) armStreamTimer() {
	if c.stream.timer != nil {
		return
	}
	c.stream.timer = c.clock.AfterFunc(streamRetry, c.streamTick)
}

// streamTick retransmits whatever the standby has not acknowledged.
func (c *Central) streamTick() {
	c.stream.timer = nil
	if !c.active || c.stream.peer == 0 {
		return
	}
	if c.stream.needSnap {
		// The standby never confirmed its basis; records are useless to it
		// until it has one.
		c.sendSnapshot()
		c.armStreamTimer()
		return
	}
	if len(c.stream.pending) > 0 {
		for _, rec := range c.stream.pending {
			c.sendAppend(rec)
		}
		c.armStreamTimer()
	}
}

func (c *Central) handleJournalAck(m *wire.JournalAck) {
	if m.From != c.stream.peer {
		return
	}
	if c.stream.needSnap && m.Seq >= c.stream.snapSeq {
		c.stream.needSnap = false
	}
	if m.Seq > c.stream.acked {
		c.stream.acked = m.Seq
	}
	i := 0
	for i < len(c.stream.pending) && c.stream.pending[i].Seq <= m.Seq {
		i++
	}
	c.stream.pending = c.stream.pending[i:]
	if c.stream.needSnap || len(c.stream.pending) > 0 {
		c.armStreamTimer()
	}
}

// --- receiver side ---

// HandleJournal implements core.JournalPeer: journal-plane traffic
// arriving on the hosting daemon's administrative adapter. A standby
// ingests appends and acks cumulatively; the active processes acks.
// ep is passed in because a standby has never been Activated and so has
// no endpoint of its own.
func (c *Central) HandleJournal(ep transport.Endpoint, src transport.Addr, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.JournalAppend:
		if c.active || c.jr == nil {
			return
		}
		rec, err := journal.DecodeRecord(m.Payload)
		if err != nil {
			return
		}
		c.trace(trace.Record{Kind: trace.KJournalIngested, Peer: src.IP,
			Version: rec.Epoch, Token: rec.Seq})
		c.jr.Ingest(rec)
		// Ack our position regardless: a rejected gap record makes the
		// active see a stale ack and re-base us with a snapshot.
		ack := wire.NewPacket(&wire.JournalAck{
			From: ep.LocalIP(), Epoch: c.jr.Epoch(), Seq: c.jr.Seq(),
		})
		_ = ep.Unicast(transport.PortJournal, src, ack.Bytes())
		ack.Free()
	case *wire.JournalAck:
		if !c.active || c.jr == nil {
			return
		}
		c.handleJournalAck(m)
	}
}

// JournalDrift compares the journal's incrementally folded state against
// the live Central state and describes the first divergence found ("" when
// consistent, or when this instance is not an active journaling Central).
// The invariant it serves: replaying the journal must reconstruct exactly
// the state the active Central is operating on — the journal is a prefix
// of (here: equal to, since appends are synchronous) the live view. The
// simulation-testing harness calls it from a trace sink at every applied
// report and at quiescence.
func (c *Central) JournalDrift() string {
	if !c.journaling() {
		return ""
	}
	st := c.jr.State()
	if len(st.Groups) != len(c.groups) {
		return fmt.Sprintf("journal folds %d groups, live tracks %d", len(st.Groups), len(c.groups))
	}
	for leader, g := range c.groups {
		jg := st.Groups[leader]
		if jg == nil {
			return fmt.Sprintf("live group %v missing from journal fold", leader)
		}
		if jg.Version != g.version {
			return fmt.Sprintf("group %v: journal v%d, live v%d", leader, jg.Version, g.version)
		}
		if len(jg.Members) != len(g.members) {
			return fmt.Sprintf("group %v: journal folds %d members, live has %d",
				leader, len(jg.Members), len(g.members))
		}
		for _, m := range jg.Members {
			if _, ok := g.members[m.IP]; !ok {
				return fmt.Sprintf("group %v: journaled member %v not in live group", leader, m.IP)
			}
		}
	}
	for node, dead := range c.nodeDead {
		if dead != st.DeadNodes[node] {
			return fmt.Sprintf("node %s: journal dead=%v, live dead=%v", node, st.DeadNodes[node], dead)
		}
	}
	return ""
}
