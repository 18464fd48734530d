// Webfarm: the Océano scenario that motivated GulfStream.
//
// A hosting farm serves two customers (domains) on shared hardware, with
// live user traffic routed by a balancer that learns the topology only
// from GulfStream Central's notifications. The demo runs the paper's
// §3.1 contrast end to end:
//
//  1. Customer "acme" takes a load spike, so Central reallocates servers
//     from "globex" — including a front-end carrying live sessions — by
//     rewriting switch-port VLANs over SNMP. Central expects the move:
//     it announces the drain (MoveStarted), suppresses the departure
//     notifications, and updates the configuration database. Users see
//     (almost) nothing: error-seconds stay at zero.
//  2. An operator then moves another front-end the bad way — rewiring
//     the switch ports behind GulfStream's back. The balancer keeps
//     routing to a server that is gone until failure detection and move
//     correlation catch up, and users eat the difference as
//     error-seconds. Verification flags the database mismatch.
//
// Run with:
//
//	go run ./examples/webfarm
package main

import (
	"fmt"
	"log"
	"time"

	gulfstream "repro"
)

func main() {
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:       7,
		AdminNodes: 2,
		Domains: []gulfstream.DomainSpec{
			{Name: "acme", FrontEnds: 2, BackEnds: 2},
			{Name: "globex", FrontEnds: 3, BackEnds: 4},
		},
		StartSkew:    2 * time.Second,
		RecordEvents: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	f.Bus.Subscribe(func(e gulfstream.Event) {
		switch e.Kind {
		case gulfstream.MoveStarted, gulfstream.NodeMoved, gulfstream.AdapterFailed,
			gulfstream.VerifyMismatch, gulfstream.AdapterDisabled:
			fmt.Printf("  event %v\n", e)
		}
	})

	fmt.Println("== farm boots: 2 customers, shared substrate ==")
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		log.Fatal("farm never stabilized")
	}
	central := f.ActiveCentral()
	printAllocation(f)

	// Live traffic: a serving plane routed purely off Central's
	// notifications (direct tap — the balancer runs next to Central).
	plane := f.AttachServe(gulfstream.ServeConfig{Seed: 7}, nil)
	plane.Start()
	f.RunFor(10 * time.Second) // sessions build up
	plane.Workload.ResetStats()
	fmt.Println("\nserving plane attached: user sessions flowing against both domains")

	// ---- Phase 1: the move done right (with expectation) ----
	movers := []string{"globex-fe-01", "globex-be-00"}
	fmt.Printf("\n== t=%v: acme load spike — Central reallocates %v ==\n", f.Sched.Now(), movers)
	pending := len(movers)
	for _, node := range movers {
		node := node
		if err := f.MoveNodeToDomain(node, "acme", func(err error) {
			if err != nil {
				log.Fatalf("move %s: %v", node, err)
			}
			pending--
			fmt.Printf("  SNMP reconfiguration for %s complete at t=%v\n", node, f.Sched.Now())
		}); err != nil {
			log.Fatal(err)
		}
	}
	// Let the moved adapters orphan out of their old AMGs and join the
	// new segment's groups; Central correlates the leave/join pairs.
	f.RunFor(90 * time.Second)
	if pending != 0 {
		log.Fatal("SNMP reconfigurations did not complete")
	}

	fmt.Println("\n== after reallocation ==")
	printAllocation(f)
	expectedCost := printErrorSeconds(plane, "expected move")

	// The hard part, asserted BEFORE the deliberately bad phase below:
	// no *unsuppressed* failures for the planned moves, and verification
	// against the (updated) database is clean.
	preSurprise := len(f.Bus.Log())
	unsuppressed, suppressed, moves := 0, 0, 0
	for _, e := range f.Bus.Log() {
		switch e.Kind {
		case gulfstream.AdapterFailed:
			if e.Suppressed {
				suppressed++
			} else {
				unsuppressed++
			}
		case gulfstream.NodeMoved:
			moves++
		}
	}
	fmt.Printf("\nmove inference: %d NodeMoved events; %d failure notifications suppressed, %d leaked\n",
		moves, suppressed, unsuppressed)
	if unsuppressed > 0 {
		log.Fatal("a planned move leaked failure notifications")
	}
	if findings := central.Verify(); len(findings) != 0 {
		log.Fatalf("verification found: %v", findings)
	}
	fmt.Println("verification against the configuration database: clean")
	if fs := plane.Audit(f); len(fs) != 0 {
		log.Fatalf("balancer routing table inconsistent with the fabric: %v", fs)
	}

	// ---- Phase 2: the same move done behind GulfStream's back ----
	victim := "globex-fe-02"
	fmt.Printf("\n== t=%v: operator rewires %s to acme WITHOUT telling GulfStream ==\n",
		f.Sched.Now(), victim)
	plane.Workload.ResetStats()
	if err := f.SurpriseMoveNode(victim, "acme"); err != nil {
		log.Fatal(err)
	}
	f.RunFor(90 * time.Second)

	surpriseCost := printErrorSeconds(plane, "surprise move")
	leaked := 0
	for _, e := range f.Bus.Log()[preSurprise:] {
		if e.Kind == gulfstream.AdapterFailed && !e.Suppressed {
			leaked++
		}
	}
	fmt.Printf("\nthe surprise move leaked %d unsuppressed failure notifications", leaked)
	if leaked == 0 {
		log.Fatal("\nexpected the surprise move to look like a failure")
	}
	findings := central.Verify()
	fmt.Printf(" and left %d verification mismatches\n", len(findings))
	if len(findings) == 0 {
		log.Fatal("expected verification to flag the out-of-band rewiring")
	}
	if surpriseCost <= expectedCost {
		log.Fatalf("surprise move (%.2f err-sec) should cost more than the expected one (%.2f err-sec)",
			surpriseCost, expectedCost)
	}

	fmt.Printf("\nsame reallocation, two ways: with expectation %.2f error-seconds, behind GulfStream's back %.2f.\n",
		expectedCost, surpriseCost)
	fmt.Println("announce your moves.")
}

func printAllocation(f *gulfstream.Farm) {
	servers := map[string]int{}
	for _, info := range f.Nodes {
		servers[info.Domain]++
	}
	for _, dom := range []string{"acme", "globex"} {
		fmt.Printf("  %-7s %d servers\n", dom+":", servers[dom])
	}
}

// printErrorSeconds reports what users saw during the phase and returns
// the total error-seconds.
func printErrorSeconds(plane *gulfstream.ServePlane, phase string) float64 {
	total := 0.0
	fmt.Printf("\nuser-visible cost of the %s:\n", phase)
	for _, s := range plane.Stats() {
		fmt.Printf("  %-7s %8d requests, %6d errors, %.2f error-seconds\n",
			s.Domain+":", s.Requests, s.Errors, s.ErrorSeconds)
		total += s.ErrorSeconds
	}
	return total
}
