// Partition: independent AMG formation and merge (paper §2.1).
//
// Two halves of one logical segment boot on separate VLANs (a partition),
// each forming its own Adapter Membership Group with its own leader. When
// the partition heals, the two groups discover each other through leader
// beacons and merge under the higher-IP leader via MergeOffer + two-phase
// commit. GulfStream Central sees the merge as membership movement, not
// as failures.
//
// Run with:
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"
	"time"

	gulfstream "repro"
	"repro/internal/ordered"
)

func main() {
	const half = 5
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:            11,
		UniformNodes:    2 * half,
		UniformAdapters: 2, // admin + one data adapter per node
		NodesPerSwitch:  2 * half,
		StartSkew:       time.Second,
		RecordEvents:    true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pre-partition the data segment: the second half's data adapters go
	// onto a private VLAN before boot.
	var partB []gulfstream.IP
	for i := half; i < 2*half; i++ {
		ip := f.Nodes[fmt.Sprintf("node-%03d", i)].Adapters[1]
		partB = append(partB, ip)
		sw, port, _ := f.Fabric.Locate(ip)
		if err := sw.SetPortVLAN(port, 900); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("== boot with the data segment partitioned ==")
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		log.Fatal("never stabilized")
	}
	printDataGroups(f, 2*half)

	fmt.Printf("\n== t=%v: healing the partition (VLAN rewrite) ==\n", f.Sched.Now())
	for _, ip := range partB {
		sw, port, _ := f.Fabric.Locate(ip)
		if err := sw.SetPortVLAN(port, 11); err != nil {
			log.Fatal(err)
		}
	}
	healedAt := f.Sched.Now()

	// Wait for one merged group across all data adapters.
	deadline := f.Sched.Now() + 3*time.Minute
	for f.Sched.Now() < deadline {
		f.RunFor(time.Second)
		if n, _ := mergedSize(f, 2*half); n == 2*half {
			break
		}
	}
	n, leader := mergedSize(f, 2*half)
	if n != 2*half {
		log.Fatalf("merge incomplete: %d of %d", n, 2*half)
	}
	fmt.Printf("\n== merged %v after heal ==\n", f.Sched.Now()-healedAt)
	printDataGroups(f, 2*half)
	fmt.Printf("\nfinal leader %v is the highest data adapter — merges are led by the\n", leader)
	fmt.Println("AMG leader with the highest IP address, exactly as the paper specifies.")

	// No failures should have been reported for the merging members.
	for _, e := range f.Bus.Filter(gulfstream.AdapterFailed) {
		for _, ip := range partB {
			if e.Adapter == ip && !e.Suppressed {
				fmt.Printf("note: transient failure report during partition life: %v\n", e)
			}
		}
	}
}

// mergedSize reports the size of the group containing node-000's data
// adapter and its leader.
func mergedSize(f *gulfstream.Farm, total int) (int, gulfstream.IP) {
	ip := f.Nodes["node-000"].Adapters[1]
	v, ok := f.Daemons["node-000"].View(ip)
	if !ok {
		return 0, 0
	}
	// All daemons must agree before we call it merged.
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("node-%03d", i)
		a := f.Nodes[name].Adapters[1]
		w, ok := f.Daemons[name].View(a)
		if !ok || !w.Equal(v) {
			return 0, 0
		}
	}
	return v.Size(), v.Leader()
}

func printDataGroups(f *gulfstream.Farm, total int) {
	groups := map[gulfstream.IP][]gulfstream.IP{}
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("node-%03d", i)
		ip := f.Nodes[name].Adapters[1]
		if v, ok := f.Daemons[name].View(ip); ok {
			groups[v.Leader()] = append(groups[v.Leader()], ip)
		}
	}
	fmt.Printf("data-segment AMGs (%d):\n", len(groups))
	for _, leader := range ordered.Keys(groups) {
		fmt.Printf("  leader %v: %d members\n", leader, len(groups[leader]))
	}
}
