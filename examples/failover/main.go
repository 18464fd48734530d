// Failover: GulfStream surviving everything the paper's §3 enumerates.
//
// In sequence: a receive-dead adapter (the loopback-test case), an AMG
// leader crash (successor takeover via the committed succession order), a
// whole-switch failure (correlated from its wired adapters), and finally
// the death of the node hosting GulfStream Central itself (a new Central
// is elected among the administrative adapters and rebuilds the farm view
// from full re-reports).
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	gulfstream "repro"
)

func main() {
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:            3,
		AdminNodes:      3,
		UniformNodes:    10,
		UniformAdapters: 2,
		NodesPerSwitch:  7, // two switches
		StartSkew:       2 * time.Second,
		RecordEvents:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	f.Bus.Subscribe(func(e gulfstream.Event) { fmt.Printf("  event %v\n", e) })

	fmt.Println("== boot ==")
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		log.Fatal("never stabilized")
	}
	central := f.ActiveCentral()

	// 1. Receive-dead adapter: it can still transmit, so a naive ring
	// would blame its neighbor; the loopback self-test prevents that.
	victim := f.Nodes["node-004"].Adapters[1]
	fmt.Printf("\n== 1. adapter %v goes receive-dead ==\n", victim)
	if err := f.FailAdapter(victim, gulfstream.FailRecv); err != nil {
		log.Fatal(err)
	}
	f.RunFor(40 * time.Second)
	for _, e := range f.Bus.Filter(gulfstream.AdapterFailed) {
		if e.Adapter != victim {
			log.Fatalf("healthy adapter %v was blamed", e.Adapter)
		}
	}
	fmt.Println("  -> only the broken adapter was reported (loopback test worked)")
	_ = f.FailAdapter(victim, gulfstream.Healthy)
	f.RunFor(40 * time.Second)

	// 2. AMG leader crash.
	dataView, _ := f.Daemons["node-000"].View(f.Nodes["node-000"].Adapters[1])
	leaderIP := dataView.Leader()
	successor := dataView.Successor()
	leader, _ := f.DB.Adapter(leaderIP)
	leaderNode := leader.Node
	fmt.Printf("\n== 2. AMG leader %v (node %s) crashes; committed successor is %v ==\n",
		leaderIP, leaderNode, successor)
	if err := f.KillNode(leaderNode); err != nil {
		log.Fatal(err)
	}
	f.RunFor(60 * time.Second)
	newView, ok := f.Daemons["node-000"].View(f.Nodes["node-000"].Adapters[1])
	if !ok || newView.Leader() != successor {
		log.Fatalf("successor takeover failed: leader now %v", newView.Leader())
	}
	fmt.Printf("  -> group recommitted under %v\n", newView.Leader())
	_ = f.RestartNode(leaderNode)
	f.RunFor(60 * time.Second)

	// 3. Switch failure: every adapter wired to sw-01 goes dark at once.
	fmt.Println("\n== 3. switch sw-01 loses power ==")
	if err := f.KillSwitch("sw-01"); err != nil {
		log.Fatal(err)
	}
	f.RunFor(60 * time.Second)
	swFails := f.Bus.Filter(gulfstream.SwitchFailed)
	if len(swFails) == 0 {
		log.Fatal("switch failure was not correlated")
	}
	fmt.Printf("  -> Central correlated the adapter deaths: %v\n", swFails[len(swFails)-1])
	_ = f.RestoreSwitch("sw-01")
	f.RunFor(90 * time.Second)

	// 4. Central's own node dies.
	hostName := f.ActiveCentralNode()
	fmt.Printf("\n== 4. GulfStream Central host %s crashes ==\n", hostName)
	groupsBefore := central.GroupCount()
	if err := f.KillNode(hostName); err != nil {
		log.Fatal(err)
	}
	if _, ok := f.RunUntilStable(3 * time.Minute); !ok {
		log.Fatal("no stability after central failover")
	}
	newCentral := f.ActiveCentral()
	if newCentral == central {
		log.Fatal("central did not move")
	}
	fmt.Printf("  -> new Central elected; view rebuilt with %d groups (had %d)\n",
		newCentral.GroupCount(), groupsBefore)
	fmt.Println("\nall four failure classes handled.")
}
