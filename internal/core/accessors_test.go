package core

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Accessor and small-path coverage.

func TestDaemonAccessors(t *testing.T) {
	h := newHarness(t, 71)
	cfg := fastConfig()
	ips := h.singleSegment(cfg, 3)
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	for _, d := range h.daemons {
		if d.Clock() == nil {
			t.Fatal("nil clock")
		}
		leading := d.Leading()
		if d.AdminIP() == leaderIP {
			if len(leading) != 1 || leading[0] != leaderIP {
				t.Fatalf("leader daemon Leading() = %v", leading)
			}
		} else if len(leading) != 0 {
			t.Fatalf("member daemon Leading() = %v", leading)
		}
	}
	// View of an unknown adapter.
	if _, ok := h.daemons["node-01"].View(ipn(9, 9)); ok {
		t.Fatal("unknown adapter had a view")
	}
	// State strings.
	for s := stIdle; s <= stLeader; s++ {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

// startChange while a round is in flight folds the changes into the dirty
// sets instead of clobbering the round.
func TestStartChangeWhileInFlight(t *testing.T) {
	h := newHarness(t, 72)
	cfg := fastConfig()
	// Members 10..13 so the phantom joiners below have LOWER addresses
	// (higher-IP joiners are deliberately ignored by queueJoin).
	var ips []transport.IP
	for i := 10; i <= 13; i++ {
		ip := ipn(0, byte(i))
		h.addNode(cfg, "n"+ip.String(), []transport.IP{ip}, []string{"admin"})
		ips = append(ips, ip)
	}
	for _, d := range h.daemons {
		d.Start()
	}
	h.run(8 * time.Second)
	leaderIP := h.viewOf(ips[0]).Leader()
	var leader *adapterProto
	for _, d := range h.daemons {
		if p, ok := d.byIP[leaderIP]; ok {
			leader = p
		}
	}
	// Open a round manually (a join of a phantom that will never ack, so
	// the round stays in flight briefly), then request another change.
	phantom := wire.Member{IP: ipn(0, 5), Node: "phantom"}
	target1 := leader.view.WithJoined(phantom)
	leader.lead.startChange(wire.OpJoin, target1)
	if leader.lead.round == nil {
		t.Fatal("no round in flight")
	}
	phantom2 := wire.Member{IP: ipn(0, 6), Node: "phantom2"}
	target2 := leader.view.WithJoined(phantom2)
	leader.lead.startChange(wire.OpJoin, target2)
	if _, queued := leader.lead.dirtyJoins[phantom2.IP]; !queued {
		t.Fatal("second change not folded into dirty set")
	}
	// Everything settles back to the real membership (phantoms never ack).
	h.run(30 * time.Second)
	h.assertOneGroup(ips)
}

// Daemon.Crash during an in-flight round must not fire timers afterwards.
func TestCrashCancelsEverything(t *testing.T) {
	h := newHarness(t, 73)
	cfg := fastConfig()
	h.singleSegment(cfg, 4)
	h.run(4 * time.Second) // mid-formation
	for _, d := range h.daemons {
		d.Crash()
	}
	fired := h.sched.Fired()
	h.run(30 * time.Second)
	// Network deliveries already queued may fire, but no daemon should
	// schedule new periodic work: the event count must flatline quickly.
	if h.sched.Fired()-fired > 200 {
		t.Fatalf("crashed daemons still active: %d events after crash", h.sched.Fired()-fired)
	}
}

// Double Start is a no-op; Start after Crash revives with a higher
// incarnation.
func TestStartIdempotentAndIncarnation(t *testing.T) {
	h := newHarness(t, 74)
	cfg := fastConfig()
	h.addNode(cfg, "solo", []transport.IP{ipn(0, 1)}, []string{"admin"})
	d := h.daemons["solo"]
	d.Start()
	inc1 := d.incarnation
	d.Start() // no-op
	if d.incarnation != inc1 {
		t.Fatal("double Start bumped incarnation")
	}
	d.Crash()
	d.Start()
	if d.incarnation != inc1+1 {
		t.Fatalf("incarnation after restart = %d, want %d", d.incarnation, inc1+1)
	}
	h.run(6 * time.Second)
	if v, ok := d.View(ipn(0, 1)); !ok || v.Size() != 1 {
		t.Fatalf("restarted solo daemon view = %v %v", v, ok)
	}
}
