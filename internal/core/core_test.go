package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/amg"
	"repro/internal/detect"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// harness builds daemons over the simulated network.
type harness struct {
	t       *testing.T
	sched   *sim.Scheduler
	res     *netsim.StaticResolver
	net     *netsim.Network
	daemons map[string]*Daemon
	eps     map[transport.IP]*netsim.Adapter
	central *fakeCentral
}

type simClock struct{ s *sim.Scheduler }

func (c simClock) Now() time.Duration { return c.s.Now() }
func (c simClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

// fakeCentral records reports and acks them, standing in for
// internal/central.
type fakeCentral struct {
	active  bool
	ep      transport.Endpoint
	reports []*wire.Report
	// groups tracks the latest full/delta-applied membership per leader.
	groups map[transport.IP]map[transport.IP]bool
}

func newFakeCentral() *fakeCentral {
	return &fakeCentral{groups: make(map[transport.IP]map[transport.IP]bool)}
}

func (c *fakeCentral) Activate(ep transport.Endpoint) { c.active, c.ep = true, ep }
func (c *fakeCentral) Deactivate()                    { c.active = false }

func (c *fakeCentral) HandleReport(src transport.Addr, r *wire.Report) {
	cp := *r
	c.reports = append(c.reports, &cp)
	if r.Full {
		set := make(map[transport.IP]bool)
		for _, m := range r.Members {
			set[m.IP] = true
		}
		c.groups[r.Leader] = set
	} else if set, ok := c.groups[r.Leader]; ok {
		for _, m := range r.Members {
			set[m.IP] = true
		}
		for _, ip := range r.Left {
			delete(set, ip)
		}
	}
	// Members can live in only one group: joining here removes elsewhere.
	for _, m := range r.Members {
		for l, set := range c.groups {
			if l != r.Leader {
				delete(set, m.IP)
			}
		}
	}
	for l, set := range c.groups {
		if len(set) == 0 {
			delete(c.groups, l)
		}
	}
	if c.ep != nil {
		ack := &wire.ReportAck{From: c.ep.LocalIP(), Seq: r.Seq}
		_ = c.ep.Unicast(transport.PortReport, src, wire.Encode(ack))
	}
}

func newHarness(t *testing.T, seed int64) *harness {
	t.Helper()
	sched := sim.NewScheduler(seed)
	res := netsim.NewStaticResolver()
	return &harness{
		t:       t,
		sched:   sched,
		res:     res,
		net:     netsim.New(sched, res),
		daemons: make(map[string]*Daemon),
		eps:     make(map[transport.IP]*netsim.Adapter),
		central: newFakeCentral(),
	}
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.BeaconPhase = 2 * time.Second
	cfg.BeaconInterval = 500 * time.Millisecond
	cfg.LeaderBeaconInterval = 1 * time.Second
	cfg.StableWait = 1 * time.Second
	cfg.DeferTimeout = 3 * time.Second
	cfg.DetectorParams.Interval = 500 * time.Millisecond
	cfg.OrphanTimeout = 6 * time.Second
	cfg.ConsensusWindow = 1 * time.Second
	return cfg
}

// addNode creates a daemon named node with adapters on the given segments
// (adapter i attaches to segments[i]; adapter 0 is administrative).
func (h *harness) addNode(cfg Config, node string, ips []transport.IP, segments []string) *Daemon {
	h.t.Helper()
	var eps []transport.Endpoint
	for i, ip := range ips {
		a := h.net.AddAdapter(ip, node)
		h.res.Attach(ip, segments[i])
		h.eps[ip] = a
		eps = append(eps, a)
	}
	d, err := NewDaemon(cfg, node, simClock{h.sched}, h.sched.Rand(), eps)
	if err != nil {
		h.t.Fatal(err)
	}
	d.SetCentral(h.central)
	h.daemons[node] = d
	return d
}

func (h *harness) run(d time.Duration) { h.sched.RunFor(d) }

// traceKinds gives every daemon of h one flight recorder and returns the
// records of the given kinds it captures from then on, in capture order.
func (h *harness) traceKinds(kinds ...trace.Kind) *[]trace.Record {
	rec := trace.New(16)
	var got []trace.Record
	rec.AddSink(func(r trace.Record) {
		if slices.Contains(kinds, r.Kind) {
			got = append(got, r)
		}
	})
	for _, d := range h.daemons { // order-free: every daemon gets the same recorder
		d.SetTracer(rec)
	}
	return &got
}

// deathsOf lists the dead members the KDeathCommitted records name.
func deathsOf(recs []trace.Record) []transport.IP {
	var out []transport.IP
	for _, r := range recs {
		if r.Kind == trace.KDeathCommitted {
			out = append(out, r.Peer)
		}
	}
	return out
}

func ipn(c, d byte) transport.IP { return transport.MakeIP(10, 0, c, d) }

// singleSegment builds n single-adapter nodes on one segment.
func (h *harness) singleSegment(cfg Config, n int) []transport.IP {
	var ips []transport.IP
	for i := 1; i <= n; i++ {
		ip := ipn(0, byte(i))
		h.addNode(cfg, fmt.Sprintf("node-%02d", i), []transport.IP{ip}, []string{"admin"})
		ips = append(ips, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	return ips
}

func (h *harness) viewOf(ip transport.IP) amg.Membership {
	h.t.Helper()
	for _, d := range h.daemons {
		if v, ok := d.View(ip); ok {
			return v
		}
	}
	h.t.Fatalf("adapter %v has no committed view", ip)
	return amg.Membership{}
}

// assertOneGroup checks all ips share one view led by the highest.
func (h *harness) assertOneGroup(ips []transport.IP) {
	h.t.Helper()
	want := h.viewOf(ips[0])
	highest := ips[0]
	for _, ip := range ips {
		if ip > highest {
			highest = ip
		}
	}
	if want.Leader() != highest {
		h.t.Fatalf("leader = %v, want highest %v (view %v)", want.Leader(), highest, want)
	}
	if want.Size() != len(ips) {
		h.t.Fatalf("group size = %d, want %d (view %v)", want.Size(), len(ips), want)
	}
	for _, ip := range ips {
		v := h.viewOf(ip)
		if !v.Equal(want) {
			h.t.Fatalf("adapter %v view %v != %v", ip, v, want)
		}
	}
}

func TestFormationSingleSegment(t *testing.T) {
	h := newHarness(t, 1)
	ips := h.singleSegment(fastConfig(), 8)
	h.run(10 * time.Second)
	h.assertOneGroup(ips)
}

func TestFormationSingleton(t *testing.T) {
	h := newHarness(t, 2)
	ips := h.singleSegment(fastConfig(), 1)
	h.run(6 * time.Second)
	v := h.viewOf(ips[0])
	if v.Size() != 1 || v.Leader() != ips[0] {
		t.Fatalf("singleton view = %v", v)
	}
}

func TestFormationTwoSegmentsStayIsolated(t *testing.T) {
	h := newHarness(t, 3)
	cfg := fastConfig()
	var segA, segB []transport.IP
	for i := 1; i <= 4; i++ {
		ip := ipn(1, byte(i))
		h.addNode(cfg, fmt.Sprintf("a-%d", i), []transport.IP{ip}, []string{"seg-a"})
		segA = append(segA, ip)
	}
	for i := 1; i <= 3; i++ {
		ip := ipn(2, byte(i))
		h.addNode(cfg, fmt.Sprintf("b-%d", i), []transport.IP{ip}, []string{"seg-b"})
		segB = append(segB, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(10 * time.Second)
	h.assertOneGroup(segA)
	h.assertOneGroup(segB)
	if h.viewOf(segA[0]).Leader() == h.viewOf(segB[0]).Leader() {
		t.Fatal("segments merged across isolation boundary")
	}
}

func TestMultiAdapterNodeThreeGroups(t *testing.T) {
	// The paper's testbed shape: every node has 3 adapters on 3 segments,
	// yielding 3 AMGs (Figure 5's "three groups").
	h := newHarness(t, 4)
	cfg := fastConfig()
	segs := []string{"admin", "front", "back"}
	var perSeg [3][]transport.IP
	for i := 1; i <= 5; i++ {
		var ips []transport.IP
		for s := 0; s < 3; s++ {
			ip := ipn(byte(s), byte(i))
			ips = append(ips, ip)
			perSeg[s] = append(perSeg[s], ip)
		}
		h.addNode(cfg, fmt.Sprintf("node-%d", i), ips, segs)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(12 * time.Second)
	for s := 0; s < 3; s++ {
		h.assertOneGroup(perSeg[s])
	}
}

func TestLateJoiner(t *testing.T) {
	h := newHarness(t, 5)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	h.assertOneGroup(ips)

	late := ipn(0, 99)
	h.addNode(cfg, "late", []transport.IP{late}, []string{"admin"})
	h.daemons["late"].Start()
	h.run(10 * time.Second)
	// 10.0.0.99 is the highest IP: it must end up leading the group after
	// the merge path runs (it forms, absorbs the old group).
	all := append(append([]transport.IP{}, ips...), late)
	h.assertOneGroup(all)
}

func TestLateJoinerLowIP(t *testing.T) {
	h := newHarness(t, 6)
	cfg := fastConfig()
	var ips []transport.IP
	for i := 10; i <= 14; i++ {
		ip := ipn(0, byte(i))
		h.addNode(cfg, fmt.Sprintf("node-%d", i), []transport.IP{ip}, []string{"admin"})
		ips = append(ips, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(8 * time.Second)
	late := ipn(0, 2) // lower than everyone: plain join
	h.addNode(cfg, "late", []transport.IP{late}, []string{"admin"})
	h.daemons["late"].Start()
	h.run(8 * time.Second)
	h.assertOneGroup(append(append([]transport.IP{}, ips...), late))
}

func TestMemberDeathRecommit(t *testing.T) {
	h := newHarness(t, 7)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 6)
	h.run(8 * time.Second)
	h.assertOneGroup(ips)

	recs := h.traceKinds(trace.KDeathCommitted)
	victim := ipn(0, 3)
	h.daemons["node-03"].Crash()
	h.eps[victim].SetMode(netsim.FailStop)
	h.run(15 * time.Second)
	deaths := deathsOf(*recs)

	var rest []transport.IP
	for _, ip := range ips {
		if ip != victim {
			rest = append(rest, ip)
		}
	}
	h.assertOneGroup(rest)
	found := false
	for _, d := range deaths {
		if d == victim {
			found = true
		} else {
			t.Fatalf("false death declared: %v", d)
		}
	}
	if !found {
		t.Fatal("no committed death traced for the victim")
	}
}

func TestLeaderDeathSuccessorTakesOver(t *testing.T) {
	h := newHarness(t, 8)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 6)
	h.run(8 * time.Second)
	view := h.viewOf(ips[0])
	oldLeader := view.Leader()
	successor := view.Successor()

	// Crash the leader node.
	for name, d := range h.daemons {
		if d.AdminIP() == oldLeader {
			d.Crash()
			h.eps[oldLeader].SetMode(netsim.FailStop)
			_ = name
		}
	}
	h.run(20 * time.Second)
	var rest []transport.IP
	for _, ip := range ips {
		if ip != oldLeader {
			rest = append(rest, ip)
		}
	}
	h.assertOneGroup(rest)
	if got := h.viewOf(rest[0]).Leader(); got != successor {
		t.Fatalf("new leader = %v, want committed successor %v", got, successor)
	}
}

func TestPartitionMerge(t *testing.T) {
	h := newHarness(t, 9)
	cfg := fastConfig()
	// Two halves boot in separate partitions of the same logical segment.
	var left, right []transport.IP
	for i := 1; i <= 3; i++ {
		ip := ipn(0, byte(i))
		h.addNode(cfg, fmt.Sprintf("l-%d", i), []transport.IP{ip}, []string{"part-left"})
		left = append(left, ip)
	}
	for i := 10; i <= 12; i++ {
		ip := ipn(0, byte(i))
		h.addNode(cfg, fmt.Sprintf("r-%d", i), []transport.IP{ip}, []string{"part-right"})
		right = append(right, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(8 * time.Second)
	h.assertOneGroup(left)
	h.assertOneGroup(right)

	// Heal: everyone onto one segment.
	for _, ip := range left {
		h.res.Attach(ip, "part-right")
	}
	h.run(15 * time.Second)
	h.assertOneGroup(append(append([]transport.IP{}, left...), right...))
}

func TestMovedAdapterRejoinsNewSegment(t *testing.T) {
	h := newHarness(t, 10)
	cfg := fastConfig()
	var segA, segB []transport.IP
	for i := 1; i <= 4; i++ {
		ip := ipn(1, byte(i))
		h.addNode(cfg, fmt.Sprintf("a-%d", i), []transport.IP{ip}, []string{"seg-a"})
		segA = append(segA, ip)
	}
	for i := 1; i <= 4; i++ {
		ip := ipn(2, byte(i))
		h.addNode(cfg, fmt.Sprintf("b-%d", i), []transport.IP{ip}, []string{"seg-b"})
		segB = append(segB, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(10 * time.Second)
	h.assertOneGroup(segA)
	h.assertOneGroup(segB)

	// VLAN move: a-2's adapter lands in seg-b (paper §3.1's scenario).
	moved := ipn(1, 2)
	h.res.Attach(moved, "seg-b")
	h.run(30 * time.Second)

	var restA []transport.IP
	for _, ip := range segA {
		if ip != moved {
			restA = append(restA, ip)
		}
	}
	h.assertOneGroup(restA)
	h.assertOneGroup(append(append([]transport.IP{}, segB...), moved))
}

func TestFormationUnderLoss(t *testing.T) {
	h := newHarness(t, 11)
	h.net.SetDefaultProfile(netsim.LinkProfile{Loss: 0.15, Latency: 300 * time.Microsecond, Jitter: 500 * time.Microsecond})
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 10)
	// Under 15% loss the group may transiently shed and re-absorb members
	// (false suspicions, orphan/heal cycles); the guarantee is eventual
	// convergence, so poll rather than assert at a fixed instant.
	deadline := 120 * time.Second
	for h.sched.Now() < deadline {
		h.run(2 * time.Second)
		if converged(h, ips) {
			return
		}
	}
	h.assertOneGroup(ips) // fail with details
}

// converged reports whether all ips share one committed view of full size.
func converged(h *harness, ips []transport.IP) bool {
	var want amg.Membership
	for i, ip := range ips {
		var v amg.Membership
		found := false
		for _, d := range h.daemons {
			if vv, ok := d.View(ip); ok {
				v, found = vv, true
			}
		}
		if !found || v.Size() != len(ips) {
			return false
		}
		if i == 0 {
			want = v
		} else if !v.Equal(want) {
			return false
		}
	}
	return true
}

func TestDisableAdapterGoesSilent(t *testing.T) {
	h := newHarness(t, 12)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	victim := ipn(0, 2)
	if !h.daemons["node-02"].DisableAdapter(victim) {
		t.Fatal("DisableAdapter refused")
	}
	h.run(15 * time.Second)
	var rest []transport.IP
	for _, ip := range ips {
		if ip != victim {
			rest = append(rest, ip)
		}
	}
	h.assertOneGroup(rest)
	if _, ok := h.daemons["node-02"].View(victim); ok {
		t.Fatal("disabled adapter still has a committed view")
	}
}

func TestDisableMessageFromNetwork(t *testing.T) {
	h := newHarness(t, 13)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 4)
	h.run(8 * time.Second)
	// A Disable sent to node-03's admin adapter targeting itself.
	target := ipn(0, 3)
	sender := h.eps[ipn(0, 1)]
	msg := &wire.Disable{Target: target, Reason: "verify conflict"}
	_ = sender.Unicast(transport.PortMember, transport.Addr{IP: target, Port: transport.PortMember}, wire.Encode(msg))
	h.run(15 * time.Second)
	var rest []transport.IP
	for _, ip := range ips {
		if ip != target {
			rest = append(rest, ip)
		}
	}
	h.assertOneGroup(rest)
}

func TestReportsReachCentral(t *testing.T) {
	h := newHarness(t, 14)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 6)
	h.run(12 * time.Second)
	h.assertOneGroup(ips)
	leader := h.viewOf(ips[0]).Leader()

	if !h.central.active {
		t.Fatal("central never activated on the admin leader")
	}
	set := h.central.groups[leader]
	if len(set) != len(ips) {
		t.Fatalf("central sees %d members of group %v, want %d (reports: %d)",
			len(set), leader, len(ips), len(h.central.reports))
	}
	for _, ip := range ips {
		if !set[ip] {
			t.Fatalf("central missing member %v", ip)
		}
	}
	// The leader daemon must know it hosts Central.
	for _, d := range h.daemons {
		if d.AdminIP() == leader && !d.HostingCentral() {
			t.Fatal("leader daemon does not report hosting central")
		}
		if d.centralIP != leader {
			t.Fatalf("daemon %s thinks central is %v", d.node, d.centralIP)
		}
	}
}

func TestSteadyStateSilenceOnReportPlane(t *testing.T) {
	h := newHarness(t, 15)
	cfg := fastConfig()
	h.singleSegment(cfg, 6)
	h.run(15 * time.Second)
	before := len(h.central.reports)
	h.run(60 * time.Second)
	after := len(h.central.reports)
	if after != before {
		t.Fatalf("membership reports flowed in steady state: %d -> %d", before, after)
	}
}

func TestDeltaReportOnDeath(t *testing.T) {
	h := newHarness(t, 16)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 6)
	h.run(12 * time.Second)
	victim := ipn(0, 2)
	h.daemons["node-02"].Crash()
	h.eps[victim].SetMode(netsim.FailStop)
	h.run(20 * time.Second)
	leader := h.viewOf(ipn(0, 6)).Leader()
	set := h.central.groups[leader]
	if set[victim] {
		t.Fatal("central still counts the dead member")
	}
	if len(set) != len(ips)-1 {
		t.Fatalf("central group size = %d, want %d", len(set), len(ips)-1)
	}
	// The death must have arrived as a delta, not a full resync.
	last := h.central.reports[len(h.central.reports)-1]
	if last.Full {
		t.Fatal("death reported via full report; expected delta")
	}
	foundLeft := false
	for _, r := range h.central.reports {
		for _, l := range r.Left {
			if l == victim {
				foundLeft = true
			}
		}
	}
	if !foundLeft {
		t.Fatal("no delta report carried the departure")
	}
}

func TestCentralFailover(t *testing.T) {
	h := newHarness(t, 17)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 6)
	h.run(12 * time.Second)
	view := h.viewOf(ips[0])
	oldCentral := view.Leader()
	successor := view.Successor()

	for _, d := range h.daemons {
		if d.AdminIP() == oldCentral {
			d.Crash()
			h.eps[oldCentral].SetMode(netsim.FailStop)
		}
	}
	h.run(30 * time.Second)
	for _, d := range h.daemons {
		if !d.Running() {
			continue
		}
		if d.centralIP != successor {
			t.Fatalf("daemon %s central = %v, want successor %v", d.node, d.centralIP, successor)
		}
		if d.AdminIP() == successor && !d.HostingCentral() {
			t.Fatal("successor is not hosting central")
		}
	}
	// New central rebuilt the view from full re-reports.
	set := h.central.groups[successor]
	if len(set) != len(ips)-1 {
		t.Fatalf("rebuilt view has %d members, want %d", len(set), len(ips)-1)
	}
}

func TestCrashAndRestartRejoins(t *testing.T) {
	h := newHarness(t, 18)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 5)
	h.run(8 * time.Second)
	victim := ipn(0, 2)
	h.daemons["node-02"].Crash()
	h.eps[victim].SetMode(netsim.FailStop)
	h.run(12 * time.Second)
	// Reboot.
	h.eps[victim].SetMode(netsim.Healthy)
	h.daemons["node-02"].Start()
	h.run(15 * time.Second)
	h.assertOneGroup(ips)
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.BeaconInterval = 0 },
		func(c *Config) { c.CommitTimeout = 0 },
		func(c *Config) { c.DetectorParams.MissThreshold = 0 },
		func(c *Config) { c.OrphanTimeout = 0 },
		func(c *Config) { c.Consensus = true; c.Detector = detect.Ring },
		func(c *Config) { c.ProbeRetries = -1 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestNewDaemonErrors(t *testing.T) {
	h := newHarness(t, 19)
	if _, err := NewDaemon(DefaultConfig(), "x", simClock{h.sched}, h.sched.Rand(), nil); err == nil {
		t.Fatal("no-adapter daemon accepted")
	}
	cfg := DefaultConfig()
	cfg.AdminIndex = 5
	a := h.net.AddAdapter(ipn(9, 1), "x")
	if _, err := NewDaemon(cfg, "x", simClock{h.sched}, h.sched.Rand(), []transport.Endpoint{a}); err == nil {
		t.Fatal("out-of-range AdminIndex accepted")
	}
}

// Determinism: the same seed yields the same final topology and report
// stream; different seeds may differ in timing but converge to the same
// groups.
func TestDeterministicConvergence(t *testing.T) {
	runOnce := func(seed int64) (transport.IP, int) {
		h := newHarness(t, seed)
		ips := h.singleSegment(fastConfig(), 7)
		h.run(15 * time.Second)
		h.assertOneGroup(ips)
		return h.viewOf(ips[0]).Leader(), len(h.central.reports)
	}
	l1, r1 := runOnce(42)
	l2, r2 := runOnce(42)
	if l1 != l2 || r1 != r2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", l1, r1, l2, r2)
	}
}

func TestAllDetectorKindsConverge(t *testing.T) {
	kinds := []detect.Kind{detect.Ring, detect.BiRing, detect.AllToAll, detect.RandPing, detect.Subgroup}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			h := newHarness(t, 20)
			cfg := fastConfig()
			cfg.Detector = k
			cfg.Consensus = k == detect.BiRing
			ips := h.singleSegment(cfg, 8)
			h.run(12 * time.Second)
			h.assertOneGroup(ips)
			// And each still detects a failure end to end.
			victim := ipn(0, 4)
			h.daemons["node-04"].Crash()
			h.eps[victim].SetMode(netsim.FailStop)
			h.run(40 * time.Second)
			var rest []transport.IP
			for _, ip := range ips {
				if ip != victim {
					rest = append(rest, ip)
				}
			}
			h.assertOneGroup(rest)
		})
	}
}

// Two members that die together leave in one round, and the leader
// traces their committed deaths in ascending address order on every run,
// whatever order the map that batched them walks in.
func TestTwoDeathsTraceInAddressOrder(t *testing.T) {
	run := func() []trace.Record {
		h := newHarness(t, 7)
		ips := h.singleSegment(fastConfig(), 8)
		h.run(8 * time.Second)
		h.assertOneGroup(ips)
		recs := h.traceKinds(trace.KDeathCommitted)
		for _, name := range []string{"node-02", "node-05"} {
			d := h.daemons[name]
			d.Crash()
			h.eps[d.AdminIP()].SetMode(netsim.FailStop)
		}
		h.run(15 * time.Second)
		return *recs
	}
	first := run()
	if len(first) != 2 || first[0].TxnID() != first[1].TxnID() {
		t.Fatalf("want two committed deaths in one round, got %v", first)
	}
	if first[0].Peer > first[1].Peer {
		t.Fatalf("deaths traced out of address order: %v", first)
	}
	for i := 0; i < 8; i++ { // one walk of a two-entry map comes out either way
		if again := run(); !slices.Equal(deathsOf(first), deathsOf(again)) {
			t.Fatalf("runs traced deaths %v, then %v", deathsOf(first), deathsOf(again))
		}
	}
}
