package detect

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/amg"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeNet wires detector instances to each other through the scheduler,
// standing in for the daemon + netsim stack.
type fakeNet struct {
	sched   *sim.Scheduler
	nodes   map[transport.IP]*fakeNode
	latency time.Duration
	// drop decides per-packet loss; nil means lossless.
	drop  func(src, dst transport.IP) bool
	sends int
}

type suspicion struct {
	suspect transport.IP
	reason  wire.SuspectReason
	at      time.Duration
}

type fakeNode struct {
	net      *fakeNet
	ip       transport.IP
	det      Detector
	alive    bool
	suspects []suspicion
}

func newFakeNet(seed int64) *fakeNet {
	return &fakeNet{
		sched:   sim.NewScheduler(seed),
		nodes:   make(map[transport.IP]*fakeNode),
		latency: time.Millisecond,
	}
}

func (n *fakeNet) addNode(ip transport.IP, kind Kind, p Params) *fakeNode {
	fn := &fakeNode{net: n, ip: ip, alive: true}
	fn.det = New(kind, p, &fakeEnv{node: fn})
	n.nodes[ip] = fn
	return fn
}

// reconfigureAll installs view everywhere.
func (n *fakeNet) reconfigureAll(view amg.Membership) {
	for _, fn := range n.nodes {
		fn.det.Reconfigure(view)
	}
}

func (n *fakeNet) allSuspicions() []suspicion {
	var out []suspicion
	for _, fn := range n.nodes {
		out = append(out, fn.suspects...)
	}
	return out
}

// fakeEnv adapts fakeNode to Env.
type fakeEnv struct{ node *fakeNode }

func (e *fakeEnv) Self() transport.IP     { return e.node.ip }
func (e *fakeEnv) Clock() transport.Clock { return simClock{e.node.net.sched} }
func (e *fakeEnv) Rand() *rand.Rand       { return e.node.net.sched.Rand() }

func (e *fakeEnv) Send(dst transport.IP, m wire.Message) {
	net := e.node.net
	if !e.node.alive {
		return
	}
	net.sends++
	if net.drop != nil && net.drop(e.node.ip, dst) {
		return
	}
	src := e.node.ip
	pkt := wire.Encode(m) // exercise the codec on the way through
	net.sched.AfterFunc(net.latency, func() {
		target, ok := net.nodes[dst]
		if !ok || !target.alive {
			return
		}
		decoded, err := wire.Decode(pkt)
		if err != nil {
			panic(err)
		}
		target.det.Handle(src, decoded)
	})
}

func (e *fakeEnv) ReportSuspect(s transport.IP, r wire.SuspectReason) {
	if !e.node.alive {
		return // a crashed node reports nothing
	}
	e.node.suspects = append(e.node.suspects, suspicion{suspect: s, reason: r, at: e.node.net.sched.Now()})
}

type simClock struct{ s *sim.Scheduler }

func (c simClock) Now() time.Duration { return c.s.Now() }
func (c simClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

func ip(d byte) transport.IP { return transport.MakeIP(10, 0, 0, d) }

func buildGroup(n *fakeNet, kind Kind, p Params, count int) amg.Membership {
	var members []wire.Member
	for i := 1; i <= count; i++ {
		a := ip(byte(i))
		n.addNode(a, kind, p)
		members = append(members, wire.Member{IP: a, Node: "n"})
	}
	view := amg.New(1, members)
	n.reconfigureAll(view)
	return view
}

func runFor(n *fakeNet, d time.Duration) { n.sched.RunFor(d) }

func fastParams() Params {
	p := Defaults()
	p.Interval = 100 * time.Millisecond
	p.MissThreshold = 3
	p.PingTimeout = 40 * time.Millisecond
	p.PollInterval = 500 * time.Millisecond
	p.PollTimeout = 100 * time.Millisecond
	p.SubgroupSize = 4
	return p
}

func kindsUnderTest() []Kind { return []Kind{Ring, BiRing, AllToAll, RandPing, Subgroup} }

// Steady state: no detector strategy may raise suspicions when everyone
// is healthy and the network is lossless.
func TestNoFalseSuspicionsWhenHealthy(t *testing.T) {
	for _, kind := range kindsUnderTest() {
		t.Run(kind.String(), func(t *testing.T) {
			n := newFakeNet(1)
			buildGroup(n, kind, fastParams(), 9)
			runFor(n, 30*time.Second)
			if s := n.allSuspicions(); len(s) != 0 {
				t.Fatalf("healthy group produced suspicions: %v", s)
			}
		})
	}
}

// Kill one member: every strategy must suspect exactly that member,
// within a strategy-appropriate bound.
func TestSingleFailureDetected(t *testing.T) {
	for _, kind := range kindsUnderTest() {
		t.Run(kind.String(), func(t *testing.T) {
			n := newFakeNet(2)
			buildGroup(n, kind, fastParams(), 9)
			runFor(n, 2*time.Second) // settle
			victim := ip(5)
			n.nodes[victim].alive = false
			killedAt := n.sched.Now()
			runFor(n, 30*time.Second)
			sus := n.allSuspicions()
			if len(sus) == 0 {
				t.Fatal("failure never suspected")
			}
			for _, s := range sus {
				if s.suspect != victim {
					t.Fatalf("suspected %v, want only %v (all: %v)", s.suspect, victim, sus)
				}
			}
			latency := sus[0].at - killedAt
			if latency > 15*time.Second {
				t.Fatalf("first suspicion after %v", latency)
			}
		})
	}
}

// Ring topology: only the dead member's ring-left... i.e. its monitoring
// neighbor reports it; distant members stay quiet.
func TestRingOnlyNeighborReports(t *testing.T) {
	n := newFakeNet(3)
	view := buildGroup(n, Ring, fastParams(), 9)
	victim := ip(5)
	watcher := view.RightOf(victim) // the one monitoring victim as its left
	n.nodes[victim].alive = false
	runFor(n, 5*time.Second)
	for a, fn := range n.nodes {
		if a == watcher {
			if len(fn.suspects) == 0 {
				t.Fatalf("monitoring neighbor %v did not report", watcher)
			}
			continue
		}
		if len(fn.suspects) != 0 {
			t.Fatalf("non-neighbor %v reported %v", a, fn.suspects)
		}
	}
}

// Bidirectional ring: both neighbors independently report the victim —
// the two votes the leader's consensus needs.
func TestBiRingBothNeighborsReport(t *testing.T) {
	n := newFakeNet(4)
	view := buildGroup(n, BiRing, fastParams(), 9)
	victim := ip(5)
	left, right := view.Neighbors(victim)
	n.nodes[victim].alive = false
	runFor(n, 5*time.Second)
	for _, rep := range []transport.IP{left, right} {
		if len(n.nodes[rep].suspects) == 0 {
			t.Fatalf("neighbor %v of %v silent", rep, victim)
		}
	}
}

// Suspicions re-raise while the peer stays silent (a one-shot report can
// be lost), but no faster than once per miss window.
func TestSuspicionReRaisePacing(t *testing.T) {
	n := newFakeNet(5)
	p := fastParams() // interval 100ms, miss 3 => window 300ms
	buildGroup(n, Ring, p, 5)
	n.nodes[ip(3)].alive = false
	runFor(n, 20*time.Second)
	window := time.Duration(p.MissThreshold) * p.Interval
	for a, fn := range n.nodes {
		if len(fn.suspects) == 0 {
			continue
		}
		// Must re-raise at least a few times over 20s of silence.
		if len(fn.suspects) < 3 {
			t.Fatalf("node %v reported only %d times in 20s", a, len(fn.suspects))
		}
		for i := 1; i < len(fn.suspects); i++ {
			gap := fn.suspects[i].at - fn.suspects[i-1].at
			if gap < window {
				t.Fatalf("node %v re-raised after %v (< window %v)", a, gap, window)
			}
		}
	}
}

// After a reconfiguration that removes the dead member, the ring heals
// and no further suspicions appear.
func TestReconfigureHealsRing(t *testing.T) {
	n := newFakeNet(6)
	view := buildGroup(n, Ring, fastParams(), 6)
	victim := ip(4)
	n.nodes[victim].alive = false
	runFor(n, 3*time.Second)
	healed := view.Without(victim)
	n.reconfigureAll(healed)
	// Clear old suspicions, then verify silence.
	for _, fn := range n.nodes {
		fn.suspects = nil
	}
	runFor(n, 20*time.Second)
	if s := n.allSuspicions(); len(s) != 0 {
		t.Fatalf("suspicions after heal: %v", s)
	}
}

// A rejoining member must not be insta-suspected: the monitor grants a
// fresh grace period on reconfigure.
func TestRejoinGracePeriod(t *testing.T) {
	n := newFakeNet(7)
	view := buildGroup(n, Ring, fastParams(), 5)
	victim := ip(3)
	n.nodes[victim].alive = false
	runFor(n, 3*time.Second)
	n.reconfigureAll(view.Without(victim))
	runFor(n, 2*time.Second)
	// Revive and re-add.
	n.nodes[victim].alive = true
	for _, fn := range n.nodes {
		fn.suspects = nil
	}
	rejoined := view.Without(victim).WithJoined(wire.Member{IP: victim, Node: "n"})
	n.reconfigureAll(rejoined)
	runFor(n, 10*time.Second)
	if s := n.allSuspicions(); len(s) != 0 {
		t.Fatalf("revived member suspected: %v", s)
	}
}

// Lossy network: a unidirectional ring with MissThreshold=1 (the paper's
// "one strike and you're out") must produce false positives, and raising
// the threshold must reduce them. This is the paper's §3 trade-off.
func TestLossSensitivityTradeoff(t *testing.T) {
	run := func(miss int) int {
		n := newFakeNet(8)
		p := fastParams()
		p.MissThreshold = miss
		rng := rand.New(rand.NewSource(99))
		n.drop = func(_, _ transport.IP) bool { return rng.Float64() < 0.10 }
		buildGroup(n, Ring, p, 16)
		runFor(n, 60*time.Second)
		return len(n.allSuspicions())
	}
	strict := run(1)
	lax := run(6)
	if strict == 0 {
		t.Fatal("one-strike detector produced no false positives under 10% loss; trade-off not reproduced")
	}
	if lax >= strict {
		t.Fatalf("raising threshold did not reduce false positives: k=1 %d vs k=6 %d", strict, lax)
	}
}

// RandPing: indirect probing masks loss on the direct path — a member
// whose direct path to one peer is severed is NOT suspected because
// proxies still reach it.
func TestRandPingIndirectProbesMaskPathLoss(t *testing.T) {
	n := newFakeNet(9)
	p := fastParams()
	// Sever only the 1<->2 direct path, both directions.
	n.drop = func(src, dst transport.IP) bool {
		return (src == ip(1) && dst == ip(2)) || (src == ip(2) && dst == ip(1))
	}
	buildGroup(n, RandPing, p, 6)
	runFor(n, 60*time.Second)
	if s := n.allSuspicions(); len(s) != 0 {
		t.Fatalf("path loss caused suspicion despite proxies: %v", s)
	}
}

// RandPing detects a genuinely dead member even with some ambient loss.
func TestRandPingDetectsUnderLoss(t *testing.T) {
	n := newFakeNet(10)
	p := fastParams()
	rng := rand.New(rand.NewSource(5))
	n.drop = func(_, _ transport.IP) bool { return rng.Float64() < 0.05 }
	buildGroup(n, RandPing, p, 8)
	victim := ip(3)
	n.nodes[victim].alive = false
	runFor(n, 60*time.Second)
	hits, misses := 0, 0
	for _, s := range n.allSuspicions() {
		if s.suspect == victim {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 {
		t.Fatal("dead member never suspected")
	}
	// Raw detector suspicions may include rare loss-induced false
	// positives (the leader's verification probe filters those); they
	// must stay a small minority.
	if misses*10 > hits {
		t.Fatalf("too many false suspicions: %d false vs %d true", misses, hits)
	}
}

// Subgroup: killing an entire subgroup triggers the leader's poll-based
// catastrophic detection for every member of it.
func TestSubgroupCatastrophicLoss(t *testing.T) {
	n := newFakeNet(11)
	p := fastParams()
	p.SubgroupSize = 4
	view := buildGroup(n, Subgroup, p, 12)
	subs := view.Subgroups(4)
	if len(subs) != 3 {
		t.Fatalf("expected 3 subgroups, got %d", len(subs))
	}
	// Kill the whole last subgroup (doesn't contain the leader).
	victimSub := subs[2]
	victims := map[transport.IP]bool{}
	for _, m := range victimSub {
		victims[m.IP] = true
		n.nodes[m.IP].alive = false
	}
	runFor(n, 30*time.Second)
	reported := map[transport.IP]bool{}
	for _, s := range n.allSuspicions() {
		if !victims[s.suspect] {
			t.Fatalf("non-victim %v suspected", s.suspect)
		}
		reported[s.suspect] = true
	}
	for v := range victims {
		if !reported[v] {
			t.Fatalf("victim %v never reported", v)
		}
	}
}

// Load scaling: per-interval message count must be O(n) for ring and
// randping but O(n^2) for all-to-all.
func TestLoadScaling(t *testing.T) {
	count := func(kind Kind, size int) int {
		n := newFakeNet(12)
		buildGroup(n, kind, fastParams(), size)
		runFor(n, 2*time.Second)
		n.sends = 0
		runFor(n, 10*time.Second)
		return n.sends
	}
	ring16, ring32 := count(Ring, 16), count(Ring, 32)
	ata16, ata32 := count(AllToAll, 16), count(AllToAll, 32)
	if r := float64(ring32) / float64(ring16); r > 2.5 {
		t.Fatalf("ring load grew superlinearly: %d -> %d (x%.1f)", ring16, ring32, r)
	}
	if r := float64(ata32) / float64(ata16); r < 3.0 {
		t.Fatalf("all-to-all load not quadratic: %d -> %d (x%.1f)", ata16, ata32, r)
	}
	if ata32 < ring32*8 {
		t.Fatalf("all-to-all (%d) should dwarf ring (%d) at n=32", ata32, ring32)
	}
}

// Singleton and pair groups must not blow up.
func TestDegenerateGroupSizes(t *testing.T) {
	for _, kind := range kindsUnderTest() {
		t.Run(kind.String(), func(t *testing.T) {
			n := newFakeNet(13)
			buildGroup(n, kind, fastParams(), 1)
			runFor(n, 5*time.Second)
			if len(n.allSuspicions()) != 0 {
				t.Fatal("singleton suspected someone")
			}

			n2 := newFakeNet(14)
			buildGroup(n2, kind, fastParams(), 2)
			runFor(n2, 5*time.Second)
			if len(n2.allSuspicions()) != 0 {
				t.Fatal("healthy pair suspected someone")
			}
			n2.nodes[ip(1)].alive = false
			runFor(n2, 30*time.Second)
			sus := n2.allSuspicions()
			if len(sus) == 0 {
				t.Fatal("pair failure undetected")
			}
			for _, s := range sus {
				if s.suspect != ip(1) {
					t.Fatalf("wrong suspect %v", s.suspect)
				}
			}
		})
	}
}

// Stop must silence a detector completely.
func TestStopSilences(t *testing.T) {
	for _, kind := range kindsUnderTest() {
		n := newFakeNet(15)
		buildGroup(n, kind, fastParams(), 6)
		runFor(n, 2*time.Second)
		for _, fn := range n.nodes {
			fn.det.Stop()
		}
		n.sends = 0
		runFor(n, 10*time.Second)
		if n.sends != 0 {
			t.Fatalf("%v: %d sends after Stop", kind, n.sends)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range kindsUnderTest() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

func TestMonitorSet(t *testing.T) {
	m := newMonitorSet()
	const win = 3 * time.Second
	const reRaise = time.Hour // effectively one-shot for this test
	m.reset([]transport.IP{ip(1), ip(2)}, 0)
	if got := m.overdue(2*time.Second, win, reRaise); len(got) != 0 {
		t.Fatal("premature overdue")
	}
	if got := m.overdue(4*time.Second, win, reRaise); len(got) != 2 {
		t.Fatalf("overdue = %v", got)
	}
	m.heard(ip(1), 4*time.Second)
	if got := m.overdue(5*time.Second, win, reRaise); len(got) != 1 || got[0] != ip(2) {
		t.Fatalf("overdue after heard = %v", got)
	}
	m.markSuspected(ip(1), 5*time.Second)
	m.markSuspected(ip(2), 5*time.Second)
	if got := m.overdue(10*time.Second, win, reRaise); len(got) != 0 {
		t.Fatal("suspected peer re-reported before reRaise elapsed")
	}
	// After the re-raise interval the silent peer is reported again.
	if got := m.overdue(5*time.Second+reRaise+time.Second, win, reRaise); len(got) != 2 {
		t.Fatalf("silent peers not re-raised: %v", got)
	}
	// Hearing a suspected peer clears the suspicion; ip(1) stays marked.
	m.heard(ip(2), 11*time.Second)
	if got := m.overdue(20*time.Second, win, reRaise); len(got) != 1 || got[0] != ip(2) {
		t.Fatalf("revived peer not re-monitorable: %v", got)
	}
	// unknown peers are ignored
	m.heard(ip(9), 0)
	if len(m.lastSeen) != 2 {
		t.Fatal("heard added unknown peer")
	}
}

// Peers that go silent in the same tick are suspected in ascending address
// order, whatever order the map of silence clocks walks in: each report
// sends a probe, and the order of sends decides later timing.
func TestOverdueInAddressOrder(t *testing.T) {
	want := []transport.IP{ip(3), ip(7), ip(9)}
	for run := 0; run < 20; run++ {
		m := newMonitorSet()
		m.reset([]transport.IP{ip(9), ip(3), ip(7)}, 0)
		if got := m.overdue(time.Minute, time.Second, time.Second); !slices.Equal(got, want) {
			t.Fatalf("run %d: overdue = %v, want %v", run, got, want)
		}
	}
}
