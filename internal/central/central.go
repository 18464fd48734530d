// Package central implements GulfStream Central — the root of the
// reporting hierarchy (paper §2.2, §3). The node whose administrative
// adapter leads the administrative AMG hosts Central. It assembles the
// farm-wide topology from leaders' membership reports, correlates adapter
// failures into node and switch failures, verifies the discovered
// topology against the configuration database (flagging and optionally
// disabling conflicting adapters), infers domain moves from paired
// leave/join reports and suppresses the resulting false failure
// notifications, and drives dynamic VLAN reconfiguration through the
// switches' SNMP agents.
package central

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/configdb"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/ordered"
	"repro/internal/snmp"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes Central.
type Config struct {
	// StabilizeWait is Tgsc: how long the farm view must sit unchanged
	// before Central declares the topology stable (15 s in the paper).
	StabilizeWait time.Duration
	// MoveWindow bounds how long a departure may wait for the matching
	// join before an unexpected move stops being inferable.
	MoveWindow time.Duration
	// Community is the SNMP community used toward the switches.
	Community string
	// SNMPPort is the local client port on the administrative adapter.
	SNMPPort uint16
	// DisableConflicts makes verification send Disable orders for
	// wrong-segment adapters (the paper's security response).
	DisableConflicts bool
}

// DefaultConfig mirrors the prototype parameters.
func DefaultConfig() Config {
	return Config{
		StabilizeWait:    15 * time.Second,
		MoveWindow:       60 * time.Second,
		Community:        "farm-admin",
		SNMPPort:         7410,
		DisableConflicts: false,
	}
}

// reporter is what Central keeps about one group beside its view: the
// admin address of the daemon reporting for the group, so Central can ask
// it for a full resync, and the rate limit on asking. A stale or
// unchanged report updates src without committing a record, so the
// group's next record, not the view, carries the current reporter.
type reporter struct {
	src transport.Addr
	// resyncAt rate-limits resync requests; resynced marks it meaningful
	// (zero is a valid instant under the simulated clock).
	resyncAt time.Duration
	resynced bool
}

// Central is the farm-view authority. Like the daemon it is event-driven
// and must be driven from a single goroutine.
type Central struct {
	cfg   Config
	clock transport.Clock
	bus   *event.Bus
	db    *configdb.DB // may be nil: discovery-only mode

	active bool
	ep     transport.Endpoint
	snmp   *snmp.Client

	// st is the farm view: groups, adapter liveness, correlated node and
	// switch deaths, and the moves Central itself started. It changes only
	// by folding a record (commit); an active journaling Central's st is
	// its journal's State.
	st *journal.State
	// reporters holds a reporter per group in st, keyed by leader.
	reporters map[transport.IP]*reporter
	// nodesSeen accumulates every adapter ever reported per node
	// (ascending), the basis of node-failure correlation.
	nodesSeen map[string][]transport.IP

	// lastSeq dedups reports per reporting daemon (admin adapter addr).
	lastSeq map[transport.IP]uint64

	// incidents holds the open incident id per subject node or switch;
	// incidentSeq issues ids (incident.go).
	incidents   map[string]uint64
	incidentSeq uint64

	// limbo holds adapters displaced by a lineage break (a Fresh report
	// replaced their group): still presumed alive, but if they surface in
	// no group before the deadline they are declared failed.
	limbo      map[transport.IP]time.Duration
	sweepTimer transport.Timer

	// switchAgents maps switch name -> SNMP agent address. Central only
	// reads it, so Centrals that manage the same switches share one.
	switchAgents map[string]transport.Addr
	// snmpWiring holds switch->adapters wiring learned by walking the
	// switches' own port tables (DiscoverWiring) — the paper's §3 future
	// plan of identifying connections "by querying the routers and
	// switches directly using SNMP" instead of trusting the database.
	snmpWiring map[string][]transport.IP
	// snmpSwitchOf is the reverse index.
	snmpSwitchOf map[transport.IP]string

	// jr, when set, journals every committed transition; stream is the
	// sender side of the warm-standby replication (journal.go).
	jr     *journal.Journal
	stream stream

	// tracer, when set, receives flight-recorder records labeled with the
	// hosting node's name (trace.go).
	tracer    *trace.Recorder
	traceNode string

	lastChange  time.Duration
	everChanged bool
}

// New builds a Central. db may be nil (no verification or switch
// correlation). bus receives all published events.
func New(cfg Config, clock transport.Clock, bus *event.Bus, db *configdb.DB) *Central {
	return &Central{
		cfg:          cfg,
		clock:        clock,
		bus:          bus,
		db:           db,
		st:           journal.NewState(),
		reporters:    make(map[transport.IP]*reporter),
		nodesSeen:    make(map[string][]transport.IP),
		lastSeq:      make(map[transport.IP]uint64),
		incidents:    make(map[string]uint64),
		limbo:        make(map[transport.IP]time.Duration),
		switchAgents: make(map[string]transport.Addr),
		snmpWiring:   make(map[string][]transport.IP),
		snmpSwitchOf: make(map[transport.IP]string),
	}
}

// SetSwitchAgents tells Central where the switches' management agents
// live on the administrative network: switch name -> agent address.
// Central keeps the table and never writes it, so the Centrals of one
// zone can share it; the caller must not change it afterwards.
func (c *Central) SetSwitchAgents(agents map[string]transport.Addr) {
	c.switchAgents = agents
}

// Activate implements core.CentralHook.
func (c *Central) Activate(admin transport.Endpoint) {
	c.active = true
	c.ep = admin
	c.snmp = snmp.NewClient(admin, c.clock, c.cfg.Community, c.cfg.SNMPPort)
	// With a journal the successor adopts the view it accumulated
	// (streamed from the previous active, or loaded from disk) instead of
	// starting from nothing.
	restored := c.jr != nil && c.jr.Loaded() && len(c.jr.State().Groups) > 0
	if !restored {
		// Cold start: whatever this Central held under a previous regime
		// — groups, adapter liveness, correlated node/switch deaths — no
		// longer describes its (empty) view, and the resync rebuilds it.
		// Incident correlation state is regime-local (never journaled):
		// incidents opened by a previous activation cannot be resolved by
		// this one. The sequence keeps counting so ids stay unique per
		// instance.
		c.incidents = make(map[string]uint64)
		c.st = journal.NewState()
		if c.jr != nil {
			// The journal's fold is stale for the same reason, and left in
			// place it would leak into the next standby snapshot.
			c.jr.Reset()
		}
	}
	if c.jr != nil {
		c.st = c.jr.State() // the journal's fold is the view
	}
	// The regime-local tables are rebuilt from the view.
	c.reporters = make(map[transport.IP]*reporter, len(c.st.Groups))
	c.nodesSeen = make(map[string][]transport.IP)
	for ip, a := range c.st.Adapters { // order-free: noteSeen keeps each node's list sorted
		c.noteSeen(a.Member.Node, ip)
	}
	for leader, g := range c.st.Groups { // order-free: one reporter per leader; noteSeen keeps each node's list sorted
		c.reporters[leader] = &reporter{src: g.Src}
		for _, m := range g.Members {
			c.noteSeen(m.Node, m.IP)
		}
	}
	det := "cold"
	if restored {
		det = "restored"
		c.trace(trace.Record{Kind: trace.KJournalReplayed, Count: uint32(len(c.st.Groups))})
	}
	c.trace(trace.Record{Kind: trace.KCentralActivated, Count: uint32(len(c.st.Groups)), Detail: det})
	c.lastSeq = make(map[transport.IP]uint64)
	c.limbo = make(map[transport.IP]time.Duration)
	c.resetStream()
	c.touch()
	c.publish(event.Event{Kind: event.CentralElected, Adapter: admin.LocalIP()})
	if c.sweepTimer == nil {
		c.sweepTimer = c.clock.AfterFunc(5*time.Second, c.sweepTick)
	}
	if c.jr != nil {
		c.jr.BeginEpoch()
	}
	if restored {
		// The view is already populated: only re-confirm groups whose state
		// did not arrive live over the standby stream, one unicast each.
		c.verifyRestored()
		return
	}
	// Pull the topology: the steady state is silent, so a Central without
	// state must ask every daemon to resend full reports. Multicast on
	// the administrative segment, repeated against loss.
	c.requestResync(3)
}

// requestGroupResync asks one group's reporting daemon for a fresh full
// report, rate-limited per group.
func (c *Central) requestGroupResync(leader transport.IP) {
	rep := c.reporters[leader]
	if c.ep == nil || rep.src.IP == 0 {
		return
	}
	now := c.clock.Now()
	if rep.resynced && now-rep.resyncAt < 10*time.Second {
		return
	}
	rep.resyncAt = now
	rep.resynced = true
	c.trace(trace.Record{Kind: trace.KResyncSent, Peer: rep.src.IP,
		Group: leader, Version: c.st.Groups[leader].Version, Detail: "group"})
	req := wire.Encode(&wire.ResyncRequest{From: c.ep.LocalIP()})
	_ = c.ep.Unicast(transport.PortReport, rep.src, req)
}

// requestResync multicasts a ResyncRequest, re-sending `times` times.
func (c *Central) requestResync(times int) {
	if !c.active || c.ep == nil || times <= 0 {
		return
	}
	c.trace(trace.Record{Kind: trace.KResyncSent, Detail: "multicast"})
	req := wire.Encode(&wire.ResyncRequest{From: c.ep.LocalIP()})
	_ = c.ep.Multicast(transport.PortReport,
		transport.Addr{IP: transport.BeaconGroup, Port: transport.PortReport}, req)
	c.clock.AfterFunc(time.Second, func() { c.requestResync(times - 1) })
}

// Deactivate implements core.CentralHook.
func (c *Central) Deactivate() {
	c.trace(trace.Record{Kind: trace.KCentralDeactivated, Count: uint32(len(c.st.Groups))})
	c.active = false
	if c.jr != nil {
		// The journal goes on folding the next active's stream; the view
		// this Central leaves behind stays as it was.
		c.st = c.st.Clone()
	}
	c.resetStream()
	if c.sweepTimer != nil {
		c.sweepTimer.Stop()
		c.sweepTimer = nil
	}
}

// sweepTick runs the time-based housekeeping (limbo deadlines, stale
// expected moves) even when no reports are flowing.
func (c *Central) sweepTick() {
	if !c.active {
		c.sweepTimer = nil
		return
	}
	c.sweepExpectedMoves()
	c.sweepLimbo()
	if c.sweepTimer != nil {
		c.sweepTimer.Reset(5 * time.Second)
	}
}

// sweepLimbo declares failed any adapter displaced by a lineage break
// that never resurfaced in a group.
func (c *Central) sweepLimbo() {
	now := c.clock.Now()
	for _, ip := range expired(c.limbo, now) {
		delete(c.limbo, ip)
		info, known := c.st.Adapters[ip]
		if !known || !info.Alive {
			continue
		}
		c.commit(journal.Record{Kind: journal.RecAdapterFlip,
			Member: info.Member, Group: info.Group, DiedAt: now})
		c.publish(event.Event{Kind: event.AdapterFailed, Adapter: ip,
			Node: info.Member.Node, Detail: "unaccounted after group dissolution"})
		c.correlateNode(info.Member.Node)
		c.correlateSwitch(ip)
	}
}

// Active reports whether this instance currently is GulfStream Central.
func (c *Central) Active() bool { return c.active }

func (c *Central) publish(e event.Event) {
	e.Time = c.clock.Now()
	c.stampIncident(&e)
	c.bus.Publish(e)
}

func (c *Central) touch() {
	c.lastChange = c.clock.Now()
	c.everChanged = true
}

// Stable reports whether a nonempty view has been quiet for Tgsc.
func (c *Central) Stable() bool {
	return c.everChanged && len(c.st.Groups) > 0 &&
		c.clock.Now()-c.lastChange >= c.cfg.StabilizeWait
}

// StableAt returns the instant stability was (or will be) reached given
// no further changes: lastChange + Tgsc.
func (c *Central) StableAt() time.Duration { return c.lastChange + c.cfg.StabilizeWait }

// Groups snapshots the discovered topology: leader -> member addresses,
// ascending. A group without members is left out.
func (c *Central) Groups() map[transport.IP][]transport.IP {
	out := make(map[transport.IP][]transport.IP, len(c.st.Groups))
	for l, g := range c.st.Groups { // order-free: each leader writes its own entry
		if len(g.Members) == 0 {
			continue
		}
		ips := make([]transport.IP, len(g.Members))
		for i, m := range g.Members {
			ips[len(ips)-1-i] = m.IP
		}
		out[l] = ips
	}
	return out
}

// GroupCount returns how many AMGs Central currently tracks.
func (c *Central) GroupCount() int { return len(c.st.Groups) }

// AdapterAlive reports the last known liveness of an adapter.
func (c *Central) AdapterAlive(ip transport.IP) (alive, known bool) {
	a, ok := c.st.Adapters[ip]
	return a.Alive, ok
}

// NodeAlive reports node-level correlated state.
func (c *Central) NodeAlive(node string) bool { return !c.st.DeadNodes[node] }

// DeadNodes lists the nodes Central currently believes dead, sorted —
// the harness diffs this against a scenario's expected casualties.
func (c *Central) DeadNodes() []string {
	return ordered.Keys(c.st.DeadNodes)
}

// Topology is Central's current belief about the farm as one document:
// gsd serves it on /topology, and the conformance harness diffs it
// against its ground truth on real daemons and in the simulator alike.
type Topology struct {
	Node           string              `json:"node"`
	HostingCentral bool                `json:"hosting_central"`
	Active         bool                `json:"active"`
	Stable         bool                `json:"stable"`
	Groups         map[string][]string `json:"groups"` // leader IP -> member IPs
	DeadNodes      []string            `json:"dead_nodes,omitempty"`
	Incidents      map[string]uint64   `json:"incidents,omitempty"`
	Mismatches     []string            `json:"mismatches,omitempty"`
}

// Topology snapshots the document for this instance on node, whose
// daemon hosts Central or not; verify adds the configdb verification
// verdicts (Verify, events and all).
func (c *Central) Topology(node string, hosting, verify bool) *Topology {
	doc := &Topology{
		Node:           node,
		HostingCentral: hosting,
		Active:         c.Active(),
		Stable:         c.Stable(),
		Groups:         map[string][]string{},
		DeadNodes:      c.DeadNodes(),
		Incidents:      c.Incidents(),
	}
	for leader, members := range c.Groups() { // order-free: each leader writes its own entry
		ms := make([]string, len(members))
		for i, ip := range members {
			ms[i] = ip.String()
		}
		doc.Groups[leader.String()] = ms
	}
	if verify {
		doc.Mismatches = []string{}
		for _, m := range c.Verify() {
			doc.Mismatches = append(doc.Mismatches, m.String())
		}
	}
	return doc
}

// commit applies one transition to the view by folding its record. A
// journaling Central's journal does the folding, into the same state,
// after stamping and persisting the record, which then goes to the
// standby.
func (c *Central) commit(rec journal.Record) {
	rec.Time = c.clock.Now()
	if !c.journaling() {
		c.st.Fold(rec)
		return
	}
	c.streamRecord(c.jr.Commit(rec))
}

// putGroup commits one group's state under its current reporter. members
// is strictly descending by IP and never modified afterwards.
func (c *Central) putGroup(leader transport.IP, version uint64, members []wire.Member) {
	c.commit(journal.Record{Kind: journal.RecGroupUpdate, Group: leader,
		Version: version, Src: c.reporters[leader].src, Members: members})
}

// removeGroup commits a group's dissolution.
func (c *Central) removeGroup(leader transport.IP) {
	delete(c.reporters, leader)
	c.commit(journal.Record{Kind: journal.RecGroupRemove, Group: leader})
}

// find locates ip in a member list strictly descending by IP: its index
// and whether it is there (absent, the index it would take).
func find(members []wire.Member, ip transport.IP) (int, bool) {
	return slices.BinarySearchFunc(members, ip, func(m wire.Member, ip transport.IP) int {
		return cmp.Compare(ip, m.IP)
	})
}

// descending returns a report's member list in the view's order, strictly
// descending by IP. A list already in that order (every amg.Membership
// is) is kept as is, shared with the decoded report. Any other comes from
// a corrupt or hostile report: it is sorted into a copy, and of several
// entries for one IP the last wins.
func descending(ms []wire.Member) []wire.Member {
	i := 1
	for i < len(ms) && ms[i].IP < ms[i-1].IP {
		i++
	}
	if i >= len(ms) {
		return ms
	}
	out := slices.Clone(ms)
	slices.SortStableFunc(out, func(a, b wire.Member) int { return cmp.Compare(b.IP, a.IP) })
	n := 0
	for i, m := range out {
		if i+1 < len(out) && out[i+1].IP == m.IP {
			continue
		}
		out[n] = m
		n++
	}
	return out[:n]
}

// expired lists, in address order, the addresses whose deadline has
// passed. Expiries publish events and commit records, so they are walked
// in an order a second run of the same seed will repeat — never in the
// map's.
func expired(deadlines map[transport.IP]time.Duration, now time.Duration) []transport.IP {
	var out []transport.IP
	for ip, deadline := range deadlines { // order-free: sorted below
		if now > deadline {
			out = append(out, ip)
		}
	}
	slices.Sort(out)
	return out
}

// HandleReport implements core.CentralHook: apply one membership report
// and acknowledge it.
func (c *Central) HandleReport(src transport.Addr, r *wire.Report) {
	if !c.active {
		return
	}
	defer c.ack(src, r.Seq)
	if last, ok := c.lastSeq[src.IP]; ok && r.Seq <= last {
		return // duplicate of an already-applied report
	}
	c.lastSeq[src.IP] = r.Seq
	det := "delta"
	if r.Full {
		det = "full"
	}
	c.trace(trace.Record{Kind: trace.KReportApplied, Peer: src.IP,
		Group: r.Leader, Version: r.Version, Token: r.Seq, Detail: det})
	if r.Full {
		c.applyFull(src, r)
	} else {
		if c.st.Groups[r.Leader] == nil {
			// A delta without a baseline: we are missing state for this
			// group. Apply what we can and ask the reporter for a full.
			defer func() {
				req := wire.Encode(&wire.ResyncRequest{From: c.ep.LocalIP()})
				_ = c.ep.Unicast(transport.PortReport, src, req)
			}()
		}
		c.applyDelta(src, r)
	}
	c.sweepExpectedMoves()
	// Membership may have shifted the next-in-line admin adapter.
	c.refreshStream()
}

func (c *Central) ack(src transport.Addr, seq uint64) {
	if c.ep == nil {
		return
	}
	ack := &wire.ReportAck{From: c.ep.LocalIP(), Seq: seq}
	pkt := wire.NewPacket(ack)
	_ = c.ep.Unicast(transport.PortReport, src, pkt.Bytes())
	pkt.Free()
}

func (c *Central) applyFull(src transport.Addr, r *wire.Report) {
	members := descending(r.Members)
	// A takeover report names the group (leader + version) it supersedes:
	// the successor won leadership after verifying the old leader's death.
	// Old-group members absent from the new membership departed (typically
	// just the dead leader); the group is rekeyed under the new leader.
	// The version guard skips the inference when the old leader's address
	// now keys an unrelated, newer lineage (it moved and re-formed).
	if r.PrevLeader != 0 && r.PrevLeader != r.Leader {
		if og := c.st.Groups[r.PrevLeader]; og != nil && og.Version <= r.PrevVersion {
			c.leaveAll(r.PrevLeader, og.Members, members)
			c.removeGroup(r.PrevLeader)
			c.publish(event.Event{Kind: event.LeaderChanged, Group: r.Leader,
				Detail: fmt.Sprintf("took over from %v", r.PrevLeader)})
		}
	}
	old := c.st.Groups[r.Leader]
	// A Fresh report is a lineage break: the sender reformed after total
	// isolation and knows nothing about its previous group. Displace the
	// old same-key group's members into limbo — alive, but expected to
	// resurface somewhere within the move window — and take the report as
	// a new group's first.
	if r.Fresh && old != nil {
		for _, m := range old.Members {
			if m.IP != r.Leader {
				c.limbo[m.IP] = c.clock.Now() + c.cfg.MoveWindow
			}
		}
		old = nil
	}
	fresh := old == nil
	if fresh {
		// The report founds the group: an empty baseline, a new reporter.
		old = &journal.GroupState{}
		c.reporters[r.Leader] = &reporter{}
	}
	rep := c.reporters[r.Leader]
	if r.Version < old.Version {
		rep.src = src // still the live reporter, even when the full is stale
		return
	}
	oldSrc := rep.src
	rep.src = src
	if fresh {
		c.publish(event.Event{Kind: event.GroupFormed, Group: r.Leader,
			Detail: fmt.Sprintf("%d members", len(r.Members))})
	}
	changed := fresh
	// Joins: present now, absent before.
	for _, m := range r.Members {
		if _, had := find(old.Members, m.IP); !had {
			c.memberJoined(r.Leader, m, fresh)
			changed = true
		}
	}
	// Departures: present before, absent now.
	if c.leaveAll(r.Leader, old.Members, members) {
		changed = true
	}
	if changed {
		// Resync-triggered no-op fulls must not reset the stability clock.
		c.touch()
	}
	if changed || r.Version != old.Version || src != oldSrc {
		c.putGroup(r.Leader, r.Version, members)
	}
}

// leaveAll walks the members of leader's group that keep does not list
// through memberLeft, in address order: departures publish events and
// commit records, so a second run of the same seed must repeat the order.
// It reports whether any departed.
func (c *Central) leaveAll(leader transport.IP, members, keep []wire.Member) bool {
	left := false
	for i := len(members) - 1; i >= 0; i-- {
		if _, still := find(keep, members[i].IP); !still {
			c.memberLeft(leader, members[i])
			left = true
		}
	}
	return left
}

func (c *Central) applyDelta(src transport.Addr, r *wire.Report) {
	g := c.st.Groups[r.Leader]
	if g == nil {
		// Delta without a baseline (lost state); synthesize the group so
		// we at least track these members — the next full report heals.
		g = &journal.GroupState{}
		c.reporters[r.Leader] = &reporter{}
		c.publish(event.Event{Kind: event.GroupFormed, Group: r.Leader, Detail: "from delta"})
	}
	c.reporters[r.Leader].src = src
	// The list may be shared with the view and with decoded reports:
	// every edit builds a new one.
	members := g.Members
	changed := false
	for _, m := range r.Members {
		if i, had := find(members, m.IP); !had {
			members = slices.Insert(slices.Clip(members), i, m)
			c.memberJoined(r.Leader, m, false)
			changed = true
		}
	}
	for _, ip := range r.Left {
		if i, had := find(members, ip); had {
			m := members[i]
			members = without(members, i)
			c.memberLeft(r.Leader, m)
			changed = true
		}
	}
	if changed {
		c.touch()
		c.publish(event.Event{Kind: event.GroupChanged, Group: r.Leader,
			Detail: fmt.Sprintf("v%d, %d members", r.Version, len(members))})
	}
	if len(members) == 0 {
		c.removeGroup(r.Leader)
	} else if changed || r.Version != g.Version {
		c.putGroup(r.Leader, r.Version, members)
	}
}

// without returns a new list: members less its i-th entry.
func without(members []wire.Member, i int) []wire.Member {
	return slices.Concat(members[:i:i], members[i+1:])
}

// memberJoined integrates one adapter into the view.
func (c *Central) memberJoined(leader transport.IP, m wire.Member, initial bool) {
	delete(c.limbo, m.IP) // surfaced somewhere; no longer unaccounted
	prev, known := c.st.Adapters[m.IP]
	// An adapter lives in exactly one group: a join here is an implicit
	// departure from any other group (that is how merges appear). Only the
	// group its record names can still list it: every entry into a member
	// list comes through here and sets that name, and nothing re-points the
	// record of a listed adapter (DESIGN.md §4, "What Central indexes").
	// The old group's leader may not know it lost the member (an orphan
	// reforms without its leader dropping it), in which case our record
	// and the leader's reported state have silently diverged — ask that
	// group for a full resync so later changes reconcile.
	if og := c.st.Groups[prev.Group]; known && prev.Group != leader && og != nil {
		if i, in := find(og.Members, m.IP); in {
			if len(og.Members) == 1 {
				c.removeGroup(og.Leader)
			} else {
				c.putGroup(og.Leader, og.Version, without(og.Members, i))
				c.requestGroupResync(og.Leader)
			}
		}
	}
	c.noteSeen(m.Node, m.IP)
	wasDead := known && !prev.Alive
	movedGroup := known && prev.Group != leader
	c.commit(journal.Record{Kind: journal.RecAdapterFlip, Member: m, Alive: true, Group: leader})

	deadline, expected := c.st.ExpectedMoves[m.IP]
	switch {
	case expected && movedGroup && c.clock.Now() <= deadline:
		// A Central-initiated move completed. The adapter may have been
		// reported dead in between (ordinary member move) or regrouped
		// silently (it led its old group and reformed); either way the
		// expectation is satisfied.
		c.commit(journal.Record{Kind: journal.RecMoveDone, Adapter: m.IP})
		c.publish(event.Event{Kind: event.NodeMoved, Adapter: m.IP, Node: m.Node,
			Group: leader, Detail: "expected (central-initiated)"})
	case wasDead && movedGroup && c.clock.Now()-prev.DiedAt <= c.cfg.MoveWindow:
		// Death in one group + join in another inside the window: the
		// adapter moved domains; only Central can see this (paper §3.1) —
		// and nobody planned it.
		c.publish(event.Event{Kind: event.NodeMoved, Adapter: m.IP, Node: m.Node,
			Group: leader, Detail: "UNEXPECTED"})
		c.publish(event.Event{Kind: event.VerifyMismatch, Adapter: m.IP, Node: m.Node,
			Detail: "unplanned domain change"})
	case wasDead:
		c.publish(event.Event{Kind: event.AdapterRecovered, Adapter: m.IP, Node: m.Node, Group: leader})
	case !initial && !known:
		c.publish(event.Event{Kind: event.AdapterJoined, Adapter: m.IP, Node: m.Node, Group: leader})
	}
	c.correlateNode(m.Node)
	c.correlateSwitch(m.IP)
}

// memberLeft marks one adapter dead (or moving). A group lists only
// adapters memberJoined recorded, so the adapter is known.
func (c *Central) memberLeft(leader transport.IP, m wire.Member) {
	info := c.st.Adapters[m.IP]
	if !info.Alive {
		return
	}
	if info.Group != leader && info.Group != 0 {
		// Already accounted to a different group (it moved before this
		// departure report arrived): cleanup, not a death.
		return
	}
	c.commit(journal.Record{Kind: journal.RecAdapterFlip,
		Member: info.Member, Group: leader, DiedAt: c.clock.Now()})

	_, expected := c.st.ExpectedMoves[m.IP]
	c.publish(event.Event{Kind: event.AdapterFailed, Adapter: m.IP, Node: m.Node,
		Group: leader, Suppressed: expected,
		Detail: map[bool]string{true: "expected move in progress", false: ""}[expected]})
	c.correlateNode(m.Node)
	c.correlateSwitch(m.IP)
}

// correlateNode applies the paper's §3 inference: a node is down exactly
// when all of its adapters are down.
func (c *Central) correlateNode(node string) {
	if node == "" {
		return
	}
	known, allDead, suppressed := 0, true, true
	c.eachNodeAdapter(node, func(ip transport.IP) bool {
		known++
		if a, ok := c.st.Adapters[ip]; !ok || a.Alive {
			allDead = false
		}
		if _, exp := c.st.ExpectedMoves[ip]; !exp {
			suppressed = false
		}
		return true
	})
	if known == 0 {
		return
	}
	switch dead := c.st.DeadNodes[node]; {
	case allDead && !dead:
		c.commit(journal.Record{Kind: journal.RecNodeFlip, Node: node, Dead: true})
		c.publish(event.Event{Kind: event.NodeFailed, Node: node, Suppressed: suppressed,
			Detail: fmt.Sprintf("all %d adapters down", known)})
	case !allDead && dead:
		c.commit(journal.Record{Kind: journal.RecNodeFlip, Node: node})
		c.publish(event.Event{Kind: event.NodeRecovered, Node: node})
	}
}

// noteSeen records that ip was reported as an adapter of node.
func (c *Central) noteSeen(node string, ip transport.IP) {
	if node == "" {
		return
	}
	seen := c.nodesSeen[node]
	if i, dup := slices.BinarySearch(seen, ip); !dup {
		c.nodesSeen[node] = slices.Insert(seen, i, ip)
	}
}

// eachNodeAdapter calls fn once for every adapter known to belong to node
// — reported at any time, or listed in the database — until fn returns
// false: the reported ones ascending, then the database-only ones
// ascending.
func (c *Central) eachNodeAdapter(node string, fn func(transport.IP) bool) {
	seen := c.nodesSeen[node]
	for _, ip := range seen {
		if !fn(ip) {
			return
		}
	}
	if c.db == nil {
		return
	}
	spec, _ := c.db.Node(node)
	for _, ip := range spec.Adapters {
		if _, dup := slices.BinarySearch(seen, ip); !dup && !fn(ip) {
			return
		}
	}
}

// wiringOf resolves which switch carries an adapter and what else is
// wired there, preferring SNMP-discovered wiring over the database
// (paper §3: the prototype "relies on a configuration database to
// identify how nodes are connected"; the stated future plan — querying
// the switches directly — is DiscoverWiring).
func (c *Central) wiringOf(ip transport.IP) (name string, wired []transport.IP, ok bool) {
	if sw, found := c.snmpSwitchOf[ip]; found {
		return sw, c.snmpWiring[sw], true
	}
	if c.db == nil {
		return "", nil, false
	}
	spec, found := c.db.Adapter(ip)
	if !found || spec.Switch == "" {
		return "", nil, false
	}
	return spec.Switch, c.db.AdaptersOnSwitch(spec.Switch), true
}

// correlateSwitch applies the switch inference: a switch whose every
// wired, known adapter is dead has itself failed.
func (c *Central) correlateSwitch(ip transport.IP) {
	name, wired, ok := c.wiringOf(ip)
	if !ok || len(wired) == 0 {
		return
	}
	allDead := true
	anySeen := false
	for _, w := range wired {
		a, known := c.st.Adapters[w]
		if !known {
			continue
		}
		anySeen = true
		if a.Alive {
			allDead = false
			break
		}
	}
	if !anySeen {
		return
	}
	switch dead := c.st.DeadSwitches[name]; {
	case allDead && !dead:
		c.commit(journal.Record{Kind: journal.RecSwitchFlip, Node: name, Dead: true})
		c.publish(event.Event{Kind: event.SwitchFailed, Node: name,
			Detail: fmt.Sprintf("all %d wired adapters down", len(wired))})
	case !allDead && dead:
		c.commit(journal.Record{Kind: journal.RecSwitchFlip, Node: name})
		c.publish(event.Event{Kind: event.SwitchRecovered, Node: name})
	}
}

// sweepExpectedMoves drops moves that never completed.
func (c *Central) sweepExpectedMoves() {
	for _, ip := range expired(c.st.ExpectedMoves, c.clock.Now()) {
		c.commit(journal.Record{Kind: journal.RecMoveDone, Adapter: ip})
		node := ""
		if a, ok := c.st.Adapters[ip]; ok {
			node = a.Member.Node
		} else if c.db != nil {
			if spec, ok := c.db.Adapter(ip); ok {
				node = spec.Node
			}
		}
		c.publish(event.Event{Kind: event.VerifyMismatch, Adapter: ip,
			Node: node, Detail: "planned move never completed"})
		// The expectation was abandoned, not correlated, so no
		// NodeMoved will ever arrive to resolve the incident.
		c.closeIncidentIfMoveDone(node)
	}
}
