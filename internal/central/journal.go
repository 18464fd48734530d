package central

import (
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

// verifyRestored sends one unicast verification ResyncRequest per group
// whose state did NOT arrive live over the standby stream this process
// lifetime. Streamed state is exactly what the failed Central had
// committed, so it is trusted as-is; state loaded from disk may be
// arbitrarily stale and gets re-confirmed by its reporting daemon.
func (c *Central) verifyRestored() {
	// In leader order, not the map's: each request draws its delivery
	// jitter from the simulation's one random stream, so the order they
	// are sent in decides every later event's timing.
	var leaders []transport.IP
	for leader, g := range c.st.Groups {
		if !g.Streamed {
			leaders = append(leaders, leader)
		}
	}
	slices.Sort(leaders)
	for _, leader := range leaders {
		c.requestGroupResync(leader)
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
	if g := c.st.Groups[self]; g != nil {
		for _, m := range g.Members { // descending: the first other is the highest
			if m.IP != self {
				return m.IP
			}
		}
	}
	return 0
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

// JournalDrift describes how replaying the journal's store (snapshot
// plus log) fails to reproduce the live view ("" when it reproduces it
// exactly, or when this instance is not an active journaling Central).
// The invariant it serves: a successor stands up from exactly that
// replay, so it must be the state the active Central is operating on.
// The simulation-testing harness calls it from a trace sink at every
// applied report and at quiescence.
func (c *Central) JournalDrift() string {
	if !c.journaling() {
		return ""
	}
	return c.jr.Drift()
}
