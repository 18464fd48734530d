// Package farm assembles complete simulated multi-domain server farms —
// the Océano shape of Figure 1/2: network-isolated customer domains with
// front-end and back-end layers, an administrative domain that every node
// touches, managed switches whose VLAN tables define the segments, a
// configuration database describing the expected topology, and a
// GulfStream daemon on every node. It is the workload generator and fault
// injector behind every experiment in EXPERIMENTS.md.
package farm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/central"
	"repro/internal/check"
	"repro/internal/configdb"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// AdminVLAN is the administrative domain's VLAN id.
const AdminVLAN = 1

// BackboneVLAN is the inter-zone backbone segment of zoned farms: each
// zone's gateway node carries an extra adapter here, forming one
// farm-spanning AMG whose traffic is the only thing that crosses shard
// boundaries.
const BackboneVLAN = 2

// zoneAdminVLAN returns zone z's administrative VLAN. Zones get disjoint
// 64-wide VLAN blocks well above the domain/uniform ranges; the VLAN of a
// zone's data segment a (1-based adapter index, a < 64) is its admin
// VLAN + a.
func zoneAdminVLAN(z int) int { return 4096 + z*64 }

// DomainSpec describes one hosted customer domain.
type DomainSpec struct {
	Name      string
	FrontEnds int
	BackEnds  int
}

// FrontVLAN returns the VLAN of domain i's front-end segment.
func FrontVLAN(i int) int { return 100 + 2*i }

// BackVLAN returns the VLAN of domain i's back-end segment.
func BackVLAN(i int) int { return 101 + 2*i }

// Spec describes a farm to build.
type Spec struct {
	Seed int64

	// Domains lists the hosted domains (may be empty for uniform farms).
	Domains []DomainSpec
	// AdminNodes are management-only nodes (one admin adapter each); the
	// paper's "management nodes eligible to host the GulfStream view".
	AdminNodes int

	// UniformNodes, when > 0, builds the testbed shape instead: N nodes
	// with UniformAdapters adapters each, adapter i on VLAN class i
	// (adapter 0 administrative) — the Figure 5 workload.
	UniformNodes    int
	UniformAdapters int

	// Zones, when > 0, builds the zoned shape for large-scale sweeps:
	// Zones independent zones of ZoneNodes nodes × ZoneAdapters adapters,
	// each zone with its own admin VLAN (so it forms its own AMGs, elects
	// its own leader and hosts its own Central against a zone-local
	// configdb), plus each zone's node 0 carrying one extra adapter on the
	// shared backbone segment. Broadcast domains stay zone-sized, so total
	// formation cost grows linearly in zones instead of quadratically in
	// farm size — the only shape where 100k adapters is reachable.
	Zones        int
	ZoneNodes    int
	ZoneAdapters int

	// Shards > 1 runs a zoned farm on the sharded kernel, zone i (all its
	// nodes, switches and segments) on shard i%Shards. Only the backbone
	// crosses shards, so the lookahead window is the backbone's latency.
	Shards int

	// NodesPerSwitch packs nodes onto switches (default 16).
	NodesPerSwitch int

	// Loss is the per-delivery loss rate on every segment.
	Loss float64

	// StartSkew staggers daemon boots uniformly over [0, StartSkew) —
	// the dominant component of the paper's δ.
	StartSkew time.Duration

	// Core is the daemon configuration; zero value means defaults.
	Core core.Config
	// Central is the GulfStream Central configuration; zero means defaults.
	Central central.Config
	// RecordEvents keeps the full event log on the bus.
	RecordEvents bool
	// Journal gives every node's Central an in-memory state journal,
	// enabling the warm-standby stream and journal-based failover.
	Journal bool
	// Trace enables the protocol flight recorder: every daemon and
	// Central records protocol state transitions into the shared
	// Farm.Trace ring (records carry the node name, so one unified
	// timeline covers the whole farm). On a sharded farm the shards run
	// each window one after another, so capture order (Seq) follows the
	// shards within a window while each record's T is its own instant;
	// the records are the same as an unsharded run's, not in the same
	// order.
	Trace bool
	// TraceCapacity overrides the flight-recorder ring size
	// (trace.DefaultCapacity when zero).
	TraceCapacity int

	// Layout is the farm to build as given when no shape above is set:
	// explicit nodes, adapters, switches and domains.
	Layout *Layout
}

// NodeInfo describes one built node, as the scenario generator sees it;
// its Domain follows planned moves.
type NodeInfo = check.NodeTopo

// Farm is a built, runnable simulated farm.
type Farm struct {
	Spec Spec
	// Sched is the event kernel of a single-threaded farm; nil when the
	// farm runs sharded (use Shards, or the kernel-agnostic Now/Fired/
	// RunFor helpers).
	Sched *sim.Scheduler
	// Shards is the sharded kernel when Spec.Shards > 1, else nil.
	Shards *sim.Shards
	Net    *netsim.Network
	Fabric *switchsim.Fabric
	DB     *configdb.DB
	Bus    *event.Bus
	// DBs/Buses hold the per-zone configdb and event bus of zoned farms
	// (zone Centrals may run on different shards, so they cannot share
	// one mutable DB). DB/Bus alias zone 0's for convenience.
	DBs     []*configdb.DB
	Buses   []*event.Bus
	Metrics *metrics.Registry
	// Trace is the farm-wide flight recorder. Always present; capture is
	// enabled only when Spec.Trace is set (a disabled recorder costs one
	// atomic load per protocol transition).
	Trace *trace.Recorder

	Nodes    map[string]*NodeInfo
	Daemons  map[string]*core.Daemon
	Centrals map[string]*central.Central
	// Journals holds each node's journal when Spec.Journal is set.
	Journals map[string]*journal.Journal

	layout   *Layout
	adapters map[transport.IP]*netsim.Adapter
	owner    map[transport.IP]string // adapter -> owning node
	order    []string                // node build order (deterministic)
	shardOf  map[string]int          // node (and switch) -> home shard
	started  bool
}

// Link timing. No command, experiment or benchmark ever chose other
// values, and every recorded hash depends on these.
const (
	// linkLatency is every segment's base one-way latency but the
	// backbone's.
	linkLatency = 200 * time.Microsecond
	// linkSpread is the width of the per-delivery variation on top of it:
	// drawn from the scheduler's RNG (LinkProfile.Jitter) on uniform and
	// domain farms, a deterministic per-(src,dst) hash (LinkProfile.Spread)
	// on zoned farms, where RNG draws would make single- and multi-shard
	// runs diverge.
	linkSpread = 300 * time.Microsecond
	// backboneLatency is the backbone's base latency and, in a sharded
	// run, the conservative lookahead window.
	backboneLatency = time.Millisecond
)

// The lookahead bound: the only cross-shard link may not be faster than
// the links inside a shard. A negative difference does not compile.
const _ = uint64(backboneLatency - linkLatency)

// linkProfile is the link quality Build installs on a segment ("" for
// the default every segment but the backbone shares) — and therefore
// what healing that segment must put back.
func (f *Farm) linkProfile(segment string) netsim.LinkProfile {
	p := netsim.LinkProfile{Loss: f.Spec.Loss, Latency: linkLatency}
	if f.Spec.Zones == 0 {
		p.Jitter = linkSpread
		return p
	}
	p.Spread = linkSpread
	if segment == switchsim.SegmentName(BackboneVLAN) {
		// The backbone floods all zones: receiver-side multicast filtering
		// (mandatory across shards, and kept in single-shard runs so the
		// semantics don't depend on the shard layout).
		p.Latency = backboneLatency
		p.RecvFilter = true
	}
	return p
}

// Build constructs the farm described by spec.
func Build(spec Spec) (*Farm, error) {
	if spec.NodesPerSwitch <= 0 {
		spec.NodesPerSwitch = 16
	}
	if spec.Core.BeaconInterval == 0 {
		spec.Core = core.DefaultConfig()
	}
	if spec.Central.StabilizeWait == 0 {
		spec.Central = central.DefaultConfig()
	}
	if spec.Zones > 0 {
		if spec.ZoneNodes <= 0 || spec.ZoneAdapters <= 0 {
			return nil, fmt.Errorf("farm: zoned spec needs ZoneNodes and ZoneAdapters")
		}
		if spec.ZoneAdapters > 63 {
			return nil, fmt.Errorf("farm: ZoneAdapters %d exceeds the zone VLAN block", spec.ZoneAdapters)
		}
	}
	if spec.Shards > 1 && spec.Zones <= 0 {
		return nil, fmt.Errorf("farm: sharded farms require the zoned shape (Zones > 0)")
	}
	f := &Farm{
		Spec:     spec,
		Fabric:   switchsim.NewFabric(),
		Metrics:  metrics.NewRegistry(),
		Nodes:    make(map[string]*NodeInfo),
		Daemons:  make(map[string]*core.Daemon),
		Centrals: make(map[string]*central.Central),
		Journals: make(map[string]*journal.Journal),
		adapters: make(map[transport.IP]*netsim.Adapter),
		owner:    make(map[transport.IP]string),
		shardOf:  make(map[string]int),
	}
	if spec.Shards > 1 {
		f.Shards = sim.NewShards(spec.Seed, spec.Shards, backboneLatency)
		f.Net = netsim.NewSharded(f.Shards, f.Fabric, func(node string) int { return f.shardOf[node] })
	} else {
		f.Sched = sim.NewScheduler(spec.Seed)
		f.Net = netsim.New(f.Sched, f.Fabric)
	}
	f.Net.SetDefaultProfile(f.linkProfile(""))
	if spec.Zones > 0 {
		backbone := switchsim.SegmentName(BackboneVLAN)
		f.Net.SetSegmentProfile(backbone, f.linkProfile(backbone))
	}
	f.Metrics.Attach(f.Net)
	f.Trace = trace.New(spec.TraceCapacity)
	f.Trace.Enable(spec.Trace)
	f.Trace.AddSink(metrics.ObserveTrace(f.Metrics))

	var err error
	if f.layout, err = layout(spec); err != nil {
		return nil, err
	}
	if err := f.populate(); err != nil {
		return nil, err
	}
	f.Net.Ensure() // resolve the segment cache before the first window
	return f, nil
}

// clock adapts the scheduler to transport.Clock.
type clock struct{ s *sim.Scheduler }

func (c clock) Now() time.Duration { return c.s.Now() }
func (c clock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

// Clock returns the farm's virtual clock (shard 0's in a sharded farm;
// per-node components use clockFor so their timers live on their shard).
func (f *Farm) Clock() transport.Clock { return clock{f.schedFor("")} }

// schedFor returns the scheduler a node's events run on: the single
// kernel, or the node's home shard.
func (f *Farm) schedFor(node string) *sim.Scheduler {
	if f.Shards != nil {
		return f.Shards.Shard(f.shardOf[node])
	}
	return f.Sched
}

// clockFor returns the node's clock, backed by its home shard.
func (f *Farm) clockFor(node string) transport.Clock { return clock{f.schedFor(node)} }

// Fired reports total events executed under either kernel.
func (f *Farm) Fired() uint64 {
	if f.Shards != nil {
		return f.Shards.Fired()
	}
	return f.Sched.Fired()
}

// zone is one management domain of a farm: the nodes behind one admin
// VLAN, which form their own AMGs, elect their own leader and host their
// own Central against their own configdb and bus, reconfiguring their own
// switches. A uniform or domain farm is a single zone that owns the
// farm-wide database and bus, every switch and the scheduler's RNG
// stream; a zoned farm is Spec.Zones of them joined by the backbone, zone
// z living wholly on shard z mod K — nodes, switches and segments — so the
// backbone is the only cross-shard traffic.
type zone struct {
	index int
	db    *configdb.DB
	bus   *event.Bus
	// agents maps each switch of the zone to its SNMP agent: one read-only
	// table that every Central of the zone shares.
	agents map[string]transport.Addr
	shard  int
	// rng is the stream every daemon of the zone shares. Nil gives each
	// daemon a stream derived from the seed and its place in the build
	// order, which keeps runtime draws identical under every shard count.
	rng *rand.Rand
}

// populate builds the laid-out farm zone by zone: a zone's switches, then
// its nodes.
func (f *Farm) populate() error {
	var z *zone
	sw := 0
	for i := range f.layout.Nodes {
		n := &f.layout.Nodes[i]
		if z == nil || n.Zone != z.index {
			z = f.addZone(n.Zone, &sw)
			if f.Spec.Zones > 0 {
				f.DBs = append(f.DBs, z.db)
				f.Buses = append(f.Buses, z.bus)
			}
			if f.DB == nil {
				f.DB, f.Bus = z.db, z.bus
			}
		}
		if err := f.addNode(z, n); err != nil {
			return err
		}
	}
	return nil
}

// addZone provisions a zone's database and bus, and builds its switches
// (the layout's from *next on that belong to it): each trunked (VLANs are
// fabric-wide) and carrying its management adapter with the SNMP agent,
// listed in the zone's agent table.
func (f *Farm) addZone(index int, next *int) *zone {
	z := &zone{
		index:  index,
		db:     configdb.New(),
		bus:    event.NewBus(f.Spec.RecordEvents),
		shard:  index % max(1, f.Spec.Shards),
		agents: make(map[string]transport.Addr),
	}
	if f.Spec.Zones == 0 {
		z.rng = f.Sched.Rand()
	}
	switches := f.layout.Switches
	for ; *next < len(switches) && switches[*next].Zone == index; *next++ {
		s := &switches[*next]
		// shardOf must be set before AddAdapter: the sharded network homes
		// the adapter by its node's shard. Shard 0 is the absent entry.
		if z.shard != 0 {
			f.shardOf[s.Name] = z.shard
		}
		sw := f.Fabric.AddSwitch(s.Name)
		a := f.Net.AddAdapter(s.IP, s.Name)
		sw.Connect(s.Port, s.IP, s.VLAN)
		sw.AttachAgent(a, f.Spec.Central.Community, transport.PortSNMP)
		z.agents[s.Name] = transport.Addr{IP: s.IP, Port: transport.PortSNMP}
	}
	return z
}

// addNode builds one node in z: its adapters, wired as laid out, their
// database records, and the node's daemon and Central.
func (f *Farm) addNode(z *zone, n *NodeLayout) error {
	if len(n.Adapters) == 0 {
		return fmt.Errorf("farm: node %q has no adapters", n.Name)
	}
	if z.shard != 0 {
		f.shardOf[n.Name] = z.shard
	}
	info := &NodeInfo{Name: n.Name, Role: n.Role, Domain: n.Domain, Switch: n.Adapters[0].Switch,
		Adapters: make([]transport.IP, len(n.Adapters))}
	eps := make([]transport.Endpoint, len(n.Adapters))
	for i, a := range n.Adapters {
		ep := f.Net.AddAdapter(a.IP, n.Name)
		f.Fabric.Switch(a.Switch).Connect(a.Port, a.IP, a.VLAN)
		info.Adapters[i], eps[i] = a.IP, ep
		f.adapters[a.IP] = ep
		f.owner[a.IP] = n.Name
	}
	if err := n.Record(z.db); err != nil {
		return err
	}

	rng := z.rng
	if rng == nil {
		seed := int64(sim.Splitmix64(uint64(f.Spec.Seed) ^ sim.Splitmix64(uint64(0x10000+len(f.order)))))
		rng = rand.New(rand.NewSource(seed))
	}
	d, err := core.NewDaemon(f.Spec.Core, n.Name, f.clockFor(n.Name), rng, eps)
	if err != nil {
		return err
	}
	c := central.New(f.Spec.Central, f.clockFor(n.Name), z.bus, z.db)
	c.SetSwitchAgents(z.agents)
	if f.Spec.Journal {
		j := journal.NewMem()
		c.SetJournal(j)
		f.Journals[n.Name] = j
	}
	d.SetCentral(c)
	d.SetTracer(f.Trace)
	c.SetTracer(f.Trace, n.Name)
	f.Nodes[n.Name] = info
	f.Daemons[n.Name] = d
	f.Centrals[n.Name] = c
	f.order = append(f.order, n.Name)
	return nil
}

// Start boots every daemon, staggered over StartSkew. Skews are drawn in
// node build order from the root-seeded stream — the scheduler's own RNG
// single-threaded, a control RNG with the same seed when sharded — so the
// boot schedule is identical under every shard count.
func (f *Farm) Start() {
	if f.started {
		return
	}
	f.started = true
	rng := func() *rand.Rand {
		if f.Shards != nil {
			return rand.New(rand.NewSource(f.Spec.Seed))
		}
		return f.Sched.Rand()
	}()
	for _, name := range f.order {
		d := f.Daemons[name]
		delay := time.Duration(0)
		if f.Spec.StartSkew > 0 {
			delay = time.Duration(rng.Int63n(int64(f.Spec.StartSkew)))
		}
		f.schedFor(name).AfterFunc(delay, d.Start)
	}
}

// RunFor advances the simulation under either kernel.
func (f *Farm) RunFor(d time.Duration) {
	if f.Shards != nil {
		f.Shards.RunFor(d)
		return
	}
	f.Sched.RunFor(d)
}

// ActiveCentralNode names the node hosting the authoritative GulfStream
// Central ("" when none is active). Partitioned admin adapters may each
// host a Central for their own partition (the paper allows this); the
// authoritative one is the instance with the largest admin group behind
// it — ties broken by build order for determinism.
func (f *Farm) ActiveCentralNode() string {
	best, bestSize := "", -1
	for _, name := range f.order {
		d := f.Daemons[name]
		if !d.Running() || !d.HostingCentral() {
			continue
		}
		size := 0
		if v, ok := d.View(d.AdminIP()); ok {
			size = v.Size()
		}
		if size > bestSize {
			best, bestSize = name, size
		}
	}
	return best
}

// ActiveCentral returns the authoritative GulfStream Central, nil when
// none is active.
func (f *Farm) ActiveCentral() *central.Central { return f.Centrals[f.ActiveCentralNode()] }

// runUntil advances in 250 ms steps until reached reports an instant or
// the timeout elapses.
func (f *Farm) runUntil(timeout time.Duration, reached func() (time.Duration, bool)) (time.Duration, bool) {
	deadline := f.Now() + timeout
	for f.Now() < deadline {
		if at, ok := reached(); ok {
			return at, ok
		}
		f.RunFor(250 * time.Millisecond)
	}
	return reached()
}

// RunUntilStable advances until the active Central has a stable view or
// the timeout elapses. It returns the instant stability was reached
// (Central's StableAt) and whether stability was achieved.
func (f *Farm) RunUntilStable(timeout time.Duration) (time.Duration, bool) {
	return f.runUntil(timeout, func() (time.Duration, bool) {
		if c := f.ActiveCentral(); c != nil && c.Stable() {
			return c.StableAt(), true
		}
		return 0, false
	})
}

// HostingCentrals lists every Central currently hosted by a running
// daemon, in node build order — one per zone in a converged zoned farm.
func (f *Farm) HostingCentrals() []*central.Central {
	var out []*central.Central
	for _, name := range f.order {
		d := f.Daemons[name]
		if d.Running() && d.HostingCentral() {
			out = append(out, f.Centrals[name])
		}
	}
	return out
}

// RunUntilAllStable advances until at least want Centrals are hosted and
// every hosted Central has a stable view, or the timeout elapses — the
// zoned-farm convergence criterion (want = zone count). It returns the
// latest StableAt among the hosted Centrals.
func (f *Farm) RunUntilAllStable(want int, timeout time.Duration) (time.Duration, bool) {
	return f.runUntil(timeout, func() (time.Duration, bool) {
		cs := f.HostingCentrals()
		if len(cs) < want {
			return 0, false
		}
		var last time.Duration
		for _, c := range cs {
			if !c.Stable() {
				return 0, false
			}
			if at := c.StableAt(); at > last {
				last = at
			}
		}
		return last, true
	})
}

// --- fault injection ---

// traceFault leaves the ground-truth record a lifecycle span starts
// from: the exact simulated instant the harness disturbed the farm,
// before any daemon could notice.
func (f *Farm) traceFault(node, detail string) {
	f.Trace.Record(trace.Record{
		T: f.Now(), Kind: trace.KFaultInjected, Node: node, Detail: detail,
	})
}

// KillNode crashes a node: its daemon halts and all adapters go dark.
func (f *Farm) KillNode(name string) error {
	info, ok := f.Nodes[name]
	if !ok {
		return fmt.Errorf("farm: unknown node %q", name)
	}
	f.traceFault(name, "kill")
	f.Daemons[name].Crash()
	for _, ip := range info.Adapters {
		f.adapters[ip].SetMode(netsim.FailStop)
	}
	return nil
}

// RestartNode reverses KillNode.
func (f *Farm) RestartNode(name string) error {
	info, ok := f.Nodes[name]
	if !ok {
		return fmt.Errorf("farm: unknown node %q", name)
	}
	f.traceFault(name, "restart")
	for _, ip := range info.Adapters {
		f.adapters[ip].SetMode(netsim.Healthy)
	}
	f.Daemons[name].Start()
	return nil
}

// FailAdapter puts one adapter into the given failure mode.
func (f *Farm) FailAdapter(ip transport.IP, mode netsim.FailureMode) error {
	a, ok := f.adapters[ip]
	if !ok {
		return fmt.Errorf("farm: unknown adapter %v", ip)
	}
	f.traceFault(f.owner[ip], fmt.Sprintf("adapter %v mode %d", ip, mode))
	a.SetMode(mode)
	return nil
}

// KillSwitch powers a switch off; every adapter wired to it loses its
// segment.
func (f *Farm) KillSwitch(name string) error { return f.powerSwitch(name, false) }

// RestoreSwitch powers a switch back on.
func (f *Farm) RestoreSwitch(name string) error { return f.powerSwitch(name, true) }

func (f *Farm) powerSwitch(name string, up bool) error {
	sw := f.Fabric.Switch(name)
	if sw == nil {
		return fmt.Errorf("farm: unknown switch %q", name)
	}
	detail := "switch-off"
	if up {
		detail = "switch-on"
	}
	f.traceFault(name, detail)
	sw.SetUp(up)
	return nil
}

// MoveNodeToDomain asks the active Central to relocate a domain node: its
// non-admin adapters are re-VLANed to the target domain's segments.
func (f *Farm) MoveNodeToDomain(node, toDomain string, done func(error)) error {
	c := f.ActiveCentral()
	if c == nil {
		return fmt.Errorf("farm: no active central")
	}
	moves, err := f.layout.Moves(node, toDomain)
	if err != nil {
		return err
	}
	c.MoveNode(node, moves, func(err error) {
		if err == nil {
			f.Nodes[node].Domain = toDomain
			_ = f.DB.SetNodeDomain(node, toDomain)
		}
		if done != nil {
			done(err)
		}
	})
	return nil
}

// AdaptersOf lists the node's adapters (span.Topology): how the span
// stitcher maps detection-side trace records, which name the suspected
// adapter, back to the incident's subject node.
func (f *Farm) AdaptersOf(node string) []transport.IP {
	info, ok := f.Nodes[node]
	if !ok {
		return nil
	}
	return info.Adapters
}

// AdapterIPs lists every daemon-managed adapter in the farm.
func (f *Farm) AdapterIPs() []transport.IP {
	var out []transport.IP
	for _, name := range f.order {
		out = append(out, f.Nodes[name].Adapters...)
	}
	return out
}

// SegmentOf exposes the fabric's current view for assertions.
func (f *Farm) SegmentOf(ip transport.IP) (string, bool) { return f.Fabric.SegmentOf(ip) }
