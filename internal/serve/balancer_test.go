package serve

import (
	"sort"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fakeFarm implements Directory and Oracle for unit tests: a static
// domain map plus mutable liveness.
type fakeFarm struct {
	doms map[string][]string // domain -> front-ends
	home map[string]string   // node -> current domain (ground truth)
	dead map[string]bool
}

func newFakeFarm() *fakeFarm {
	f := &fakeFarm{
		doms: map[string][]string{
			"acme":   {"acme-fe-00", "acme-fe-01"},
			"globex": {"globex-fe-00", "globex-fe-01"},
		},
		home: map[string]string{},
		dead: map[string]bool{},
	}
	for dom, nodes := range f.doms {
		for _, n := range nodes {
			f.home[n] = dom
		}
	}
	return f
}

func (f *fakeFarm) Domains() []string {
	out := make([]string, 0, len(f.doms))
	for d := range f.doms {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func (f *fakeFarm) FrontEnds(domain string) []string {
	return append([]string(nil), f.doms[domain]...)
}

func (f *fakeFarm) DomainOf(node string) (string, bool) {
	d, ok := f.home[node]
	return d, ok
}

func (f *fakeFarm) Serves(node, domain string) bool {
	return !f.dead[node] && f.home[node] == domain
}

// moveNode updates ground truth for a domain move.
func (f *fakeFarm) moveNode(node, to string) {
	from := f.home[node]
	for i, n := range f.doms[from] {
		if n == node {
			f.doms[from] = append(f.doms[from][:i], f.doms[from][i+1:]...)
			break
		}
	}
	f.doms[to] = append(f.doms[to], node)
	f.home[node] = to
}

type simClock struct{ s *sim.Scheduler }

func (c simClock) Now() time.Duration { return c.s.Now() }
func (c simClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

func testBalancer(t *testing.T) (*Balancer, *fakeFarm, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler(1)
	farm := newFakeFarm()
	return NewBalancer(Config{}, simClock{sched}, farm, nil, nil), farm, sched
}

func TestBalancerSeedsFromDirectory(t *testing.T) {
	b, _, _ := testBalancer(t)
	got := b.Healthy("acme")
	want := []string{"acme-fe-00", "acme-fe-01"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Healthy(acme) = %v, want %v", got, want)
	}
}

func TestBalancerFailureAndRecovery(t *testing.T) {
	b, _, _ := testBalancer(t)

	b.Apply(event.Event{Kind: event.AdapterFailed, Node: "acme-fe-00"})
	if got := b.Healthy("acme"); len(got) != 1 || got[0] != "acme-fe-01" {
		t.Fatalf("after failure Healthy(acme) = %v, want [acme-fe-01]", got)
	}
	if b.down["acme-fe-00"] == "" {
		t.Fatal("acme-fe-00 should carry a down reason")
	}

	b.Apply(event.Event{Kind: event.AdapterRecovered, Node: "acme-fe-00"})
	if got := b.Healthy("acme"); len(got) != 2 {
		t.Fatalf("after recovery Healthy(acme) = %v, want both backends", got)
	}
}

func TestBalancerIgnoresSuppressedFailures(t *testing.T) {
	b, _, _ := testBalancer(t)
	b.Apply(event.Event{Kind: event.AdapterFailed, Node: "acme-fe-00", Suppressed: true})
	if got := b.Healthy("acme"); len(got) != 2 {
		t.Fatalf("suppressed failure pulled a backend: Healthy(acme) = %v", got)
	}
}

func TestBalancerIgnoresUntrackedNodes(t *testing.T) {
	b, _, _ := testBalancer(t)
	b.Apply(event.Event{Kind: event.SwitchFailed, Node: "sw0"})
	b.Apply(event.Event{Kind: event.NodeFailed, Node: "no-such-node"})
	for _, dom := range []string{"acme", "globex"} {
		if got := b.Healthy(dom); len(got) != 2 {
			t.Fatalf("untracked node event changed %s rotation: %v", dom, got)
		}
	}
}

func TestBalancerMoveStartedDrainsThenMoveRestores(t *testing.T) {
	b, farm, _ := testBalancer(t)

	// Central announces the planned move: the node drains immediately.
	b.Apply(event.Event{Kind: event.MoveStarted, Node: "globex-fe-00"})
	if got := b.Healthy("globex"); len(got) != 1 || got[0] != "globex-fe-01" {
		t.Fatalf("MoveStarted did not drain: Healthy(globex) = %v", got)
	}

	// The fabric completes the move, then the join is reported.
	farm.moveNode("globex-fe-00", "acme")
	b.Apply(event.Event{Kind: event.NodeMoved, Node: "globex-fe-00"})

	if got := b.Healthy("acme"); len(got) != 3 {
		t.Fatalf("moved node missing from acme rotation: %v", got)
	}
	if got := b.Healthy("globex"); len(got) != 1 {
		t.Fatalf("moved node still in globex rotation: %v", got)
	}
	if findings := b.Audit(farm); len(findings) != 0 {
		t.Fatalf("audit after clean move: %v", findings)
	}
}

// A move that completes while the node is down is reported as a plain
// recovery, not NodeMoved; the balancer must re-resolve the domain anyway.
func TestBalancerRecoveryHealsDomainAfterHiddenMove(t *testing.T) {
	b, farm, _ := testBalancer(t)

	b.Apply(event.Event{Kind: event.NodeFailed, Node: "globex-fe-00"})
	farm.moveNode("globex-fe-00", "acme")
	b.Apply(event.Event{Kind: event.NodeRecovered, Node: "globex-fe-00"})

	if got := b.Healthy("acme"); len(got) != 3 {
		t.Fatalf("recovered node not re-homed to acme: %v", got)
	}
	if findings := b.Audit(farm); len(findings) != 0 {
		t.Fatalf("audit after hidden move: %v", findings)
	}
}

func TestBalancerQuarantineOnMismatch(t *testing.T) {
	sched := sim.NewScheduler(1)
	farm := newFakeFarm()
	b := NewBalancer(Config{QuarantineOnMismatch: true}, simClock{sched}, farm, nil, nil)
	b.Apply(event.Event{Kind: event.VerifyMismatch, Node: "acme-fe-01"})
	if got := b.Healthy("acme"); len(got) != 1 || got[0] != "acme-fe-00" {
		t.Fatalf("mismatch did not quarantine: Healthy(acme) = %v", got)
	}

	// Default config ignores mismatches.
	b2, _, _ := testBalancer(t)
	b2.Apply(event.Event{Kind: event.VerifyMismatch, Node: "acme-fe-01"})
	if got := b2.Healthy("acme"); len(got) != 2 {
		t.Fatalf("default config quarantined on mismatch: %v", got)
	}
}

// Single requests rotate across the healthy backends, and none is routed
// once every backend is down.
func TestBalancerRouteRotates(t *testing.T) {
	b, _, _ := testBalancer(t)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		shares := b.Assign("acme", 1)
		if len(shares) != 1 {
			t.Fatalf("Assign(acme, 1) = %v with healthy backends", shares)
		}
		counts[shares[0].Node]++
	}
	if counts["acme-fe-00"] != 5 || counts["acme-fe-01"] != 5 {
		t.Fatalf("rotation uneven: %v", counts)
	}

	b.Apply(event.Event{Kind: event.NodeFailed, Node: "acme-fe-00"})
	b.Apply(event.Event{Kind: event.NodeFailed, Node: "acme-fe-01"})
	if shares := b.Assign("acme", 1); shares != nil {
		t.Fatalf("Assign(acme, 1) = %v with all backends down", shares)
	}
}

func TestBalancerAssignSplitsExactly(t *testing.T) {
	b, _, _ := testBalancer(t)
	for _, n := range []int64{1, 2, 3, 7, 100, 101, 1_000_000_001} {
		shares := b.Assign("acme", n)
		var sum int64
		for _, s := range shares {
			sum += s.Requests
		}
		if sum != n {
			t.Fatalf("Assign(acme, %d) shares sum to %d", n, sum)
		}
		if len(shares) > 2 {
			t.Fatalf("Assign(acme, %d) produced %d shares for 2 backends", n, len(shares))
		}
	}
	if shares := b.Assign("acme", 0); shares != nil {
		t.Fatalf("Assign(acme, 0) = %v, want nil", shares)
	}
}

// Repeated odd batches must rotate the remainder, not pin it to one
// backend.
func TestBalancerAssignRotatesRemainder(t *testing.T) {
	b, _, _ := testBalancer(t)
	totals := map[string]int64{}
	for i := 0; i < 10; i++ {
		for _, s := range b.Assign("acme", 3) {
			totals[s.Node] += s.Requests
		}
	}
	if totals["acme-fe-00"] != 15 || totals["acme-fe-01"] != 15 {
		t.Fatalf("remainder pinned: %v", totals)
	}
}

func TestBalancerAuditFindsStaleRoute(t *testing.T) {
	b, farm, _ := testBalancer(t)
	// Ground truth kills a node but no notification arrives.
	farm.dead["acme-fe-00"] = true
	findings := b.Audit(farm)
	if len(findings) != 1 {
		t.Fatalf("audit = %v, want exactly one finding", findings)
	}
}

func TestBalancerNotificationLagHistogram(t *testing.T) {
	sched := sim.NewScheduler(1)
	farm := newFakeFarm()
	b := NewBalancer(Config{}, simClock{sched}, farm, nil, nil)

	sched.Schedule(2*time.Second, func() {
		// Published at t=1s, delivered at t=2s: 1s of lag.
		b.Apply(event.Event{Kind: event.NodeFailed, Node: "acme-fe-00", Time: 1 * time.Second})
	})
	sched.Run()

	if b.MaxLag() != time.Second {
		t.Fatalf("MaxLag() = %v, want 1s", b.MaxLag())
	}
}
