// Quickstart: the smallest complete GulfStream farm.
//
// Builds one hosted domain plus an administrative segment, lets the
// daemons discover the topology (beaconing → AMG formation → reports to
// GulfStream Central), prints the discovered groups, then kills a node
// and shows the failure being detected, verified, and correlated.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	gulfstream "repro"
	"repro/internal/ordered"
)

func main() {
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:       42,
		AdminNodes: 2,
		Domains: []gulfstream.DomainSpec{
			{Name: "acme", FrontEnds: 2, BackEnds: 3},
		},
		StartSkew:    2 * time.Second,
		RecordEvents: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Live event feed, as a management application would consume it.
	f.Bus.Subscribe(func(e gulfstream.Event) {
		fmt.Printf("  event %v\n", e)
	})

	fmt.Println("== starting daemons (staggered boot) ==")
	f.Start()
	at, ok := f.RunUntilStable(2 * time.Minute)
	if !ok {
		log.Fatal("farm never stabilized")
	}
	fmt.Printf("\n== topology stable at t=%v (Tb+Ts+Tgsc+δ) ==\n", at)

	central := f.ActiveCentral()
	fmt.Println("\ndiscovered Adapter Membership Groups (leader -> members):")
	groups := central.Groups()
	for _, leader := range ordered.Keys(groups) {
		seg, _ := f.SegmentOf(leader)
		fmt.Printf("  %v (%s): %d members\n", leader, seg, len(groups[leader]))
		for _, m := range groups[leader] {
			fmt.Printf("      %v\n", m)
		}
	}

	// Verify the discovered topology against the configuration database.
	if findings := central.Verify(); len(findings) == 0 {
		fmt.Println("\nverification against the configuration database: clean")
	} else {
		fmt.Printf("\nverification findings: %v\n", findings)
	}

	// Kill a back-end node and watch detection, verification and
	// node-level correlation happen.
	victim := "acme-be-01"
	fmt.Printf("\n== killing node %s at t=%v ==\n", victim, f.Sched.Now())
	if err := f.KillNode(victim); err != nil {
		log.Fatal(err)
	}
	f.RunFor(30 * time.Second)

	if central.NodeAlive(victim) {
		log.Fatal("node failure was not correlated")
	}
	fmt.Printf("\nGulfStream Central: node %s is down (all adapters failed)\n", victim)

	// Bring it back.
	fmt.Printf("\n== restarting %s ==\n", victim)
	if err := f.RestartNode(victim); err != nil {
		log.Fatal(err)
	}
	f.RunFor(30 * time.Second)
	if !central.NodeAlive(victim) {
		log.Fatal("node recovery was not observed")
	}
	fmt.Printf("\nnode %s recovered; farm steady again at t=%v\n", victim, f.Sched.Now())
}
