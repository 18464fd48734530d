package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ordered"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// Property test for the incremental segment cache: drive a switch fabric
// through long random sequences of adapter adds, VLAN moves, port flaps
// and switch power cycles, and after every operation demand that the
// incrementally maintained cache agrees exactly with a from-scratch
// recomputation from the resolver.

// fabricModel tracks the adapters we wired so the expectation can be
// recomputed independently of the cache under test.
type fabricModel struct {
	ips   []transport.IP
	vlans map[int]bool
}

// expectMembers recomputes one segment's membership straight from the
// resolver — the definition the incremental cache must match.
func (m *fabricModel) expectMembers(fab *switchsim.Fabric, seg string) []transport.IP {
	var out []transport.IP
	for _, ip := range m.ips { // ips are appended in ascending order
		if s, ok := fab.SegmentOf(ip); ok && s == seg {
			out = append(out, ip)
		}
	}
	return out
}

func (m *fabricModel) checkAll(t *testing.T, fab *switchsim.Fabric, n *Network, step int, op string) {
	t.Helper()
	for vlan := range m.vlans {
		seg := switchsim.SegmentName(vlan)
		want := m.expectMembers(fab, seg)
		got := n.SegmentMembers(seg)
		if len(got) != len(want) {
			t.Fatalf("step %d (%s): %s members = %v, want %v", step, op, seg, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d (%s): %s members = %v, want %v", step, op, seg, got, want)
			}
		}
	}
	// Every segment's receivers must equal a fresh reading of its
	// members: all of them, and for each group the subscribed ones.
	// Reading a group table builds it, so a mutation that fails to empty
	// one shows at the next check.
	for _, name := range ordered.Keys(n.segments) {
		seg := n.segments[name]
		var all []receiver
		for _, ip := range n.SegmentMembers(name) {
			all = append(all, receiverOf(n.adapters[ip]))
		}
		if !slices.Equal(seg.members, all) || seg.spans != spansLanes(all) {
			t.Fatalf("step %d (%s): %s receivers = %v (spans %v), want %v", step, op, name, seg.members, seg.spans, all)
		}
		for _, g := range propGroups {
			var want []receiver
			for _, r := range all {
				if r.a.inGroup(g) {
					want = append(want, r)
				}
			}
			if got := seg.subscribed(g); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): %s receivers of %v = %v, want %v", step, op, name, g, got, want)
			}
		}
	}
	// Loopback must agree with connectivity for every adapter.
	for _, ip := range m.ips {
		_, connected := fab.SegmentOf(ip)
		if up := n.adapters[ip].Loopback(); up != connected {
			t.Fatalf("step %d (%s): adapter %v loopback = %v, resolver says %v", step, op, ip, up, connected)
		}
	}
}

// propGroups are the multicast subscriptions the property test toggles.
var propGroups = []transport.Addr{
	{IP: transport.BeaconGroup, Port: transport.PortBeacon},
	{IP: transport.BeaconGroup, Port: 9},
	{IP: transport.MakeIP(224, 0, 0, 99), Port: transport.PortBeacon},
}

func TestIncrementalCacheMatchesRebuild(t *testing.T) {
	const (
		numSwitches = 4
		numPorts    = 10 // ports per switch
		numVLANs    = 5
		steps       = 400
	)
	sched := sim.NewScheduler(7)
	fab := switchsim.NewFabric()
	n := New(sched, fab)
	if !n.incremental {
		t.Fatal("fabric should drive the incremental cache path")
	}

	rng := rand.New(rand.NewSource(42))
	model := &fabricModel{vlans: make(map[int]bool)}
	switches := make([]*switchsim.Switch, numSwitches)
	for i := range switches {
		switches[i] = fab.AddSwitch(fmt.Sprintf("sw%d", i))
	}
	vlan := func() int { return 100 + rng.Intn(numVLANs) }

	next := 0 // adapters wired so far; IP and port derive from it
	for step := 0; step < steps; step++ {
		op := "noop"
		switch k := rng.Intn(13); {
		case k >= 10 && next > 0:
			// Join or leave a multicast group.
			a := n.adapters[model.ips[rng.Intn(len(model.ips))]]
			g := propGroups[rng.Intn(len(propGroups))]
			if k == 12 {
				a.LeaveGroup(g.IP, g.Port)
				op = "leave"
			} else {
				a.JoinGroup(g.IP, g.Port)
				op = "join"
			}
		case k < 3 && next < numSwitches*numPorts:
			// Wire a new adapter into the next free port.
			sw := switches[next%numSwitches]
			port := next / numSwitches
			ip := transport.MakeIP(10, 1, byte(next/200), byte(next%200+1))
			v := vlan()
			model.vlans[v] = true
			// Exercise both wiring orders: resolver-first and adapter-first.
			if rng.Intn(2) == 0 {
				sw.Connect(port, ip, v)
				n.AddAdapter(ip, "n")
			} else {
				n.AddAdapter(ip, "n")
				sw.Connect(port, ip, v)
			}
			model.ips = append(model.ips, ip)
			next++
			op = "connect"
		case k < 6 && next > 0:
			// VLAN-move a random wired adapter.
			ip := model.ips[rng.Intn(len(model.ips))]
			sw, port, ok := fab.Locate(ip)
			if !ok {
				t.Fatalf("step %d: adapter %v lost its wiring", step, ip)
			}
			v := vlan()
			model.vlans[v] = true
			if err := sw.SetPortVLAN(port, v); err != nil {
				t.Fatal(err)
			}
			op = "vlan-move"
		case k < 8 && next > 0:
			// Flap a random adapter's port (detach / re-attach).
			ip := model.ips[rng.Intn(len(model.ips))]
			sw, port, _ := fab.Locate(ip)
			p := sw.Port(port)
			if err := sw.SetPortUp(port, !p.Up); err != nil {
				t.Fatal(err)
			}
			op = "port-flap"
		case next > 0:
			// Power-cycle a switch: a bulk change hitting many adapters.
			sw := switches[rng.Intn(numSwitches)]
			sw.SetUp(!sw.Up())
			op = "switch-toggle"
		}
		model.checkAll(t, fab, n, step, op)
	}

	// Finally, force the from-scratch path over the identical fabric state
	// and demand it reproduces what incremental maintenance built.
	type snapshot map[string][]transport.IP
	take := func() snapshot {
		s := make(snapshot)
		for vlan := range model.vlans {
			seg := switchsim.SegmentName(vlan)
			s[seg] = n.SegmentMembers(seg)
		}
		return s
	}
	before := take()
	n.invalidate()
	after := take()
	for seg, want := range before {
		got := after[seg]
		if len(got) != len(want) {
			t.Fatalf("rebuild changed %s: %v vs %v", seg, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rebuild changed %s: %v vs %v", seg, got, want)
			}
		}
	}
}
