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
	"sort"
	"time"

	"repro/internal/configdb"
	"repro/internal/event"
	"repro/internal/journal"
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

// group is Central's record of one AMG.
type group struct {
	leader  transport.IP
	version uint64
	members map[transport.IP]wire.Member
	// src is the admin address of the daemon reporting for this group,
	// kept so Central can ask it for a full resync.
	src transport.Addr
	// resyncAt rate-limits per-group resync requests; resynced marks it
	// meaningful (zero is a valid instant under the simulated clock).
	resyncAt time.Duration
	resynced bool
}

// adapterInfo is Central's record of one adapter's state.
type adapterInfo struct {
	member wire.Member
	alive  bool
	group  transport.IP // leader of the group it belongs to
	diedAt time.Duration
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

	groups   map[transport.IP]*group
	adapters map[transport.IP]adapterInfo
	// nodesSeen accumulates every adapter ever reported per node
	// (ascending), the basis of node-failure correlation.
	nodesSeen  map[string][]transport.IP
	nodeDead   map[string]bool
	switchDead map[string]bool

	// lastSeq dedups reports per reporting daemon (admin adapter addr).
	lastSeq map[transport.IP]uint64

	// expectedMoves holds adapters Central itself is relocating.
	expectedMoves map[transport.IP]time.Duration

	// incidents holds the open incident id per subject node or switch;
	// incidentSeq issues ids (incident.go).
	incidents   map[string]uint64
	incidentSeq uint64

	// limbo holds adapters displaced by a lineage break (a Fresh report
	// replaced their group): still presumed alive, but if they surface in
	// no group before the deadline they are declared failed.
	limbo      map[transport.IP]time.Duration
	sweepTimer transport.Timer

	// switchAgents maps switch name -> SNMP agent address.
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

	// OnReport, if set, observes every report as it is applied (after
	// dedup) — an observability hook for tests and debugging tools.
	OnReport func(src transport.Addr, r *wire.Report)
}

// New builds a Central. db may be nil (no verification or switch
// correlation). bus receives all published events.
func New(cfg Config, clock transport.Clock, bus *event.Bus, db *configdb.DB) *Central {
	return &Central{
		cfg:           cfg,
		clock:         clock,
		bus:           bus,
		db:            db,
		groups:        make(map[transport.IP]*group),
		adapters:      make(map[transport.IP]adapterInfo),
		nodesSeen:     make(map[string][]transport.IP),
		nodeDead:      make(map[string]bool),
		switchDead:    make(map[string]bool),
		lastSeq:       make(map[transport.IP]uint64),
		expectedMoves: make(map[transport.IP]time.Duration),
		incidents:     make(map[string]uint64),
		limbo:         make(map[transport.IP]time.Duration),
		switchAgents:  make(map[string]transport.Addr),
		snmpWiring:    make(map[string][]transport.IP),
		snmpSwitchOf:  make(map[transport.IP]string),
	}
}

// RegisterSwitchAgent tells Central where a switch's management agent
// lives on the administrative network.
func (c *Central) RegisterSwitchAgent(name string, addr transport.Addr) {
	c.switchAgents[name] = addr
}

// Activate implements core.CentralHook.
func (c *Central) Activate(admin transport.Endpoint) {
	c.active = true
	c.ep = admin
	c.snmp = snmp.NewClient(admin, c.clock, c.cfg.Community, c.cfg.SNMPPort)
	// With a journal the successor replays its accumulated state (streamed
	// from the previous active, or loaded from disk) instead of starting
	// from nothing.
	restored := c.jr != nil && c.jr.Loaded() && c.installRestored()
	if !restored {
		// Cold start: whatever this Central held under a previous regime
		// — groups, adapter liveness, correlated node/switch deaths — no
		// longer describes its (empty) view. The correlation maps must be
		// dropped along with the groups: a node marked dead by a prior
		// activation would otherwise survive in memory with no journal
		// record backing it, and the resync rebuilds all of it anyway.
		c.groups = make(map[transport.IP]*group)
		c.adapters = make(map[transport.IP]adapterInfo)
		c.nodesSeen = make(map[string][]transport.IP)
		c.nodeDead = make(map[string]bool)
		c.switchDead = make(map[string]bool)
		c.expectedMoves = make(map[transport.IP]time.Duration)
		// Incident correlation state is regime-local (never journaled):
		// incidents opened by a previous activation cannot be resolved by
		// this one. The sequence keeps counting so ids stay unique per
		// instance.
		c.incidents = make(map[string]uint64)
		if c.jr != nil {
			// The journal fold is stale for the same reason, and left in
			// place it would leak into the next standby snapshot.
			c.jr.Reset()
		}
	}
	det := "cold"
	if restored {
		det = "restored"
		c.trace(trace.Record{Kind: trace.KJournalReplayed, Count: uint32(len(c.groups))})
	}
	c.trace(trace.Record{Kind: trace.KCentralActivated, Count: uint32(len(c.groups)), Detail: det})
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
func (c *Central) requestGroupResync(g *group) {
	if c.ep == nil || g.src.IP == 0 {
		return
	}
	now := c.clock.Now()
	if g.resynced && now-g.resyncAt < 10*time.Second {
		return
	}
	g.resyncAt = now
	g.resynced = true
	c.trace(trace.Record{Kind: trace.KResyncSent, Peer: g.src.IP,
		Group: g.leader, Version: g.version, Detail: "group"})
	req := wire.Encode(&wire.ResyncRequest{From: c.ep.LocalIP()})
	_ = c.ep.Unicast(transport.PortReport, g.src, req)
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
	c.trace(trace.Record{Kind: trace.KCentralDeactivated, Count: uint32(len(c.groups))})
	c.active = false
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
		info, known := c.adapters[ip]
		if !known || !info.alive {
			continue
		}
		info.alive = false
		info.diedAt = now
		c.adapters[ip] = info
		c.jAdapter(info)
		c.publish(event.Event{Kind: event.AdapterFailed, Adapter: ip,
			Node: info.member.Node, Detail: "unaccounted after group dissolution"})
		c.correlateNode(info.member.Node)
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
	return c.everChanged && len(c.groups) > 0 &&
		c.clock.Now()-c.lastChange >= c.cfg.StabilizeWait
}

// StableAt returns the instant stability was (or will be) reached given
// no further changes: lastChange + Tgsc.
func (c *Central) StableAt() time.Duration { return c.lastChange + c.cfg.StabilizeWait }

// Groups snapshots the discovered topology: leader -> member addresses.
func (c *Central) Groups() map[transport.IP][]transport.IP {
	out := make(map[transport.IP][]transport.IP, len(c.groups))
	for l, g := range c.groups {
		for ip := range g.members {
			out[l] = append(out[l], ip)
		}
	}
	for _, ips := range out {
		slices.Sort(ips)
	}
	return out
}

// GroupCount returns how many AMGs Central currently tracks.
func (c *Central) GroupCount() int { return len(c.groups) }

// AdapterAlive reports the last known liveness of an adapter.
func (c *Central) AdapterAlive(ip transport.IP) (alive, known bool) {
	a, ok := c.adapters[ip]
	if !ok {
		return false, false
	}
	return a.alive, true
}

// NodeAlive reports node-level correlated state.
func (c *Central) NodeAlive(node string) bool { return !c.nodeDead[node] }

// DeadNodes lists the nodes Central currently believes dead, sorted —
// the harness diffs this against a scenario's expected casualties.
func (c *Central) DeadNodes() []string {
	out := make([]string, 0, len(c.nodeDead))
	for n := range c.nodeDead {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// departed lists, in address order, the members of old that keep does not
// hold. Departures publish events and write journal records, so they are
// walked in an order a second run of the same seed will repeat — never in
// the map's.
func departed[V any](old map[transport.IP]wire.Member, keep map[transport.IP]V) []wire.Member {
	var out []wire.Member
	for ip, m := range old {
		if _, still := keep[ip]; !still {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b wire.Member) int { return cmp.Compare(a.IP, b.IP) })
	return out
}

// expired lists, in address order, the addresses whose deadline has
// passed (see departed).
func expired(deadlines map[transport.IP]time.Duration, now time.Duration) []transport.IP {
	var out []transport.IP
	for ip, deadline := range deadlines {
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
	if c.OnReport != nil {
		c.OnReport(src, r)
	}
	if r.Full {
		c.applyFull(src, r)
	} else {
		if c.groups[r.Leader] == nil {
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
	// A takeover report names the group (leader + version) it supersedes:
	// the successor won leadership after verifying the old leader's death.
	// Old-group members absent from the new membership departed (typically
	// just the dead leader); the group is rekeyed under the new leader.
	// The version guard skips the inference when the old leader's address
	// now keys an unrelated, newer lineage (it moved and re-formed).
	if r.PrevLeader != 0 && r.PrevLeader != r.Leader {
		if og := c.groups[r.PrevLeader]; og != nil && og.version <= r.PrevVersion {
			inNew := make(map[transport.IP]bool, len(r.Members))
			for _, m := range r.Members {
				inNew[m.IP] = true
			}
			for _, m := range departed(og.members, inNew) {
				c.memberLeft(r.PrevLeader, m)
			}
			delete(c.groups, r.PrevLeader)
			c.jGroupRemove(r.PrevLeader)
			c.publish(event.Event{Kind: event.LeaderChanged, Group: r.Leader,
				Detail: fmt.Sprintf("took over from %v", r.PrevLeader)})
		}
	}
	// A Fresh report is a lineage break: the sender reformed after total
	// isolation and knows nothing about its previous group. Displace the
	// old same-key group's members into limbo — alive, but expected to
	// resurface somewhere within the move window.
	if r.Fresh {
		if og := c.groups[r.Leader]; og != nil {
			for ip := range og.members {
				if ip != r.Leader {
					c.limbo[ip] = c.clock.Now() + c.cfg.MoveWindow
				}
			}
			delete(c.groups, r.Leader)
		}
	}
	g := c.groups[r.Leader]
	fresh := g == nil
	if fresh {
		g = &group{leader: r.Leader} // members are installed just below
		c.groups[r.Leader] = g
	}
	if !fresh && r.Version < g.version {
		g.src = src // still the live reporter, even when the full is stale
		return
	}
	oldVersion, oldSrc := g.version, g.src
	g.src = src
	oldMembers := g.members
	g.members = make(map[transport.IP]wire.Member, len(r.Members))
	g.version = r.Version
	for _, m := range r.Members {
		g.members[m.IP] = m
	}
	if fresh {
		c.publish(event.Event{Kind: event.GroupFormed, Group: r.Leader,
			Detail: fmt.Sprintf("%d members", len(r.Members))})
	}
	changed := fresh
	// Joins: present now, absent before.
	for _, m := range r.Members {
		if _, had := oldMembers[m.IP]; !had {
			c.memberJoined(r.Leader, m, fresh)
			changed = true
		}
	}
	// Departures: present before, absent now.
	for _, m := range departed(oldMembers, g.members) {
		c.memberLeft(r.Leader, m)
		changed = true
	}
	if changed {
		// Resync-triggered no-op fulls must not reset the stability clock.
		c.touch()
	}
	if changed || g.version != oldVersion || g.src != oldSrc {
		c.jGroup(g)
	}
}

func (c *Central) applyDelta(src transport.Addr, r *wire.Report) {
	g := c.groups[r.Leader]
	if g == nil {
		// Delta without a baseline (lost state); synthesize the group so
		// we at least track these members — the next full report heals.
		g = &group{leader: r.Leader, members: make(map[transport.IP]wire.Member)}
		c.groups[r.Leader] = g
		c.publish(event.Event{Kind: event.GroupFormed, Group: r.Leader, Detail: "from delta"})
	}
	oldVersion := g.version
	g.src = src
	g.version = r.Version
	changed := false
	for _, m := range r.Members {
		if _, had := g.members[m.IP]; !had {
			g.members[m.IP] = m
			c.memberJoined(r.Leader, m, false)
			changed = true
		}
	}
	for _, ip := range r.Left {
		if m, had := g.members[ip]; had {
			delete(g.members, ip)
			c.memberLeft(r.Leader, m)
			changed = true
		}
	}
	if changed {
		c.touch()
		c.publish(event.Event{Kind: event.GroupChanged, Group: r.Leader,
			Detail: fmt.Sprintf("v%d, %d members", r.Version, len(g.members))})
	}
	if len(g.members) == 0 {
		delete(c.groups, r.Leader)
		c.jGroupRemove(r.Leader)
	} else if changed || g.version != oldVersion {
		c.jGroup(g)
	}
}

// memberJoined integrates one adapter into the view.
func (c *Central) memberJoined(leader transport.IP, m wire.Member, initial bool) {
	delete(c.limbo, m.IP) // surfaced somewhere; no longer unaccounted
	prev, known := c.adapters[m.IP]
	// An adapter lives in exactly one group: a join here is an implicit
	// departure from any other group (that is how merges appear). Only the
	// group its record names can still list it: every entry into a member
	// set comes through here and sets that name, and nothing re-points the
	// record of a listed adapter (DESIGN.md §4, "What Central indexes").
	// The old group's leader may not know it lost the member (an orphan
	// reforms without its leader dropping it), in which case our record
	// and the leader's reported state have silently diverged — ask that
	// group for a full resync so later changes reconcile.
	if og := c.groups[prev.group]; known && prev.group != leader && og != nil {
		if _, in := og.members[m.IP]; in {
			delete(og.members, m.IP)
			if len(og.members) == 0 {
				delete(c.groups, og.leader)
				c.jGroupRemove(og.leader)
			} else {
				c.jGroup(og)
				c.requestGroupResync(og)
			}
		}
	}
	c.noteSeen(m.Node, m.IP)
	wasDead := known && !prev.alive
	movedGroup := known && prev.group != leader
	info := adapterInfo{member: m, alive: true, group: leader}
	c.adapters[m.IP] = info
	c.jAdapter(info)

	deadline, expected := c.expectedMoves[m.IP]
	switch {
	case expected && movedGroup && c.clock.Now() <= deadline:
		// A Central-initiated move completed. The adapter may have been
		// reported dead in between (ordinary member move) or regrouped
		// silently (it led its old group and reformed); either way the
		// expectation is satisfied.
		delete(c.expectedMoves, m.IP)
		c.jMoveDone(m.IP)
		c.publish(event.Event{Kind: event.NodeMoved, Adapter: m.IP, Node: m.Node,
			Group: leader, Detail: "expected (central-initiated)"})
	case wasDead && movedGroup && c.clock.Now()-prev.diedAt <= c.cfg.MoveWindow:
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

// memberLeft marks one adapter dead (or moving).
func (c *Central) memberLeft(leader transport.IP, m wire.Member) {
	info, known := c.adapters[m.IP]
	if !known {
		info = adapterInfo{member: m}
		c.adapters[m.IP] = info
	}
	if !info.alive {
		return
	}
	if info.group != leader && info.group != 0 {
		// Already accounted to a different group (it moved before this
		// departure report arrived): cleanup, not a death.
		return
	}
	info.alive = false
	info.diedAt = c.clock.Now()
	info.group = leader
	c.adapters[m.IP] = info
	c.jAdapter(info)

	_, expected := c.expectedMoves[m.IP]
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
		if a, ok := c.adapters[ip]; !ok || a.alive {
			allDead = false
		}
		if _, exp := c.expectedMoves[ip]; !exp {
			suppressed = false
		}
		return true
	})
	if known == 0 {
		return
	}
	switch {
	case allDead && !c.nodeDead[node]:
		c.nodeDead[node] = true
		c.jNode(node, true)
		c.publish(event.Event{Kind: event.NodeFailed, Node: node, Suppressed: suppressed,
			Detail: fmt.Sprintf("all %d adapters down", known)})
	case !allDead && c.nodeDead[node]:
		delete(c.nodeDead, node)
		c.jNode(node, false)
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
		a, known := c.adapters[w]
		if !known {
			continue
		}
		anySeen = true
		if a.alive {
			allDead = false
			break
		}
	}
	if !anySeen {
		return
	}
	switch {
	case allDead && !c.switchDead[name]:
		c.switchDead[name] = true
		c.jSwitch(name, true)
		c.publish(event.Event{Kind: event.SwitchFailed, Node: name,
			Detail: fmt.Sprintf("all %d wired adapters down", len(wired))})
	case !allDead && c.switchDead[name]:
		delete(c.switchDead, name)
		c.jSwitch(name, false)
		c.publish(event.Event{Kind: event.SwitchRecovered, Node: name})
	}
}

// sweepExpectedMoves drops moves that never completed.
func (c *Central) sweepExpectedMoves() {
	for _, ip := range expired(c.expectedMoves, c.clock.Now()) {
		delete(c.expectedMoves, ip)
		c.jMoveDone(ip)
		node := ""
		if a, ok := c.adapters[ip]; ok {
			node = a.member.Node
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
