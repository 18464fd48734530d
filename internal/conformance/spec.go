// Package conformance is the Hive-style conformance harness: it plays
// named suites (a check-DSL fault schedule plus waits) against a
// five-node farm, and holds the farm-wide trace to the same invariant
// engine (internal/check) and incident-span audit (internal/span) the
// simulator's experiments use, plus a declarative ground-truth diff of
// Central's discovered topology. One description of the farm (FarmSpec:
// a farm.Layout plus planted database lies) and one suite runner (H)
// serve two worlds:
//
//   - real gsd daemons on real UDP sockets (Fabric, fabric.go), faulted
//     through an emulated switching fabric and scraped over HTTP. One
//     lifecycle boots, kills, restarts and stops the daemons over one of
//     two substrates, which differ only in how a segment is wired.
//     loopback (loopback.go) puts every adapter on a 127.x address and
//     emulates VLAN membership by per-segment 239.x multicast scopes
//     (transport.ScopedEndpoint, driven over the daemon's /fabricctl
//     debug handlers); it runs unprivileged, on every CI run. netns
//     (netns.go) gives every node a network namespace and every VLAN a
//     Linux bridge, so a VLAN move is a veth re-plug; it needs root and
//     iproute2, and runs nightly.
//   - the simulator (sim.go): a farm.Farm built from the same layout,
//     with the same -fast timers and the same lying database, played in
//     virtual time.
//
// Every suite runs unchanged in either world.
package conformance

import (
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/configdb"
	"repro/internal/farm"
	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// FarmSpec is the declarative description of a conformance farm: its
// layout, the wiring reality either world builds, and separately the
// lies the configuration database tells about it (the configdb-mismatch
// suite plants divergence here and expects Central to detect it).
type FarmSpec struct {
	farm.Layout

	// Segments maps VLAN id -> emulated multicast scope group (loopback
	// fabric only; the netns fabric gives every VLAN a real bridge).
	Segments map[int]transport.IP

	// The UDP port and community of the harness-side SNMP agent that
	// stands in for the layout's one switch on real daemons.
	SwitchPort uint16
	Community  string

	// Lies planted in the configuration database relative to reality.
	DBWrongVLAN map[transport.IP]int   // adapter -> VLAN the db wrongly expects
	DBGhosts    []configdb.AdapterSpec // adapters that exist only on paper
	DBOmit      map[transport.IP]bool  // real adapters the db never heard of
}

// newFarm lays out the standard five-node farm. web-i has its admin
// adapter at admin+10+i on VLAN 1 (switch port i) and its data adapter at
// data+10+i (port 10+i); web-1..3 are in domain vlan-101, web-4 and web-5
// in vlan-102. The one switch, sw-1, answers at admin+254. web-5 holds
// the highest administrative IP, so it leads the admin AMG and hosts
// Central. scopes maps each VLAN to its loopback multicast scope.
func newFarm(admin, data transport.IP, scopes map[int]transport.IP) *FarmSpec {
	f := &FarmSpec{Segments: scopes, SwitchPort: 10161, Community: "farm-admin"}
	f.Switches = []farm.SwitchLayout{{Name: "sw-1", IP: admin + 254, VLAN: farm.AdminVLAN, Port: 16}}
	for _, vlan := range []int{101, 102} {
		f.Domains = append(f.Domains, farm.DomainLayout{Name: switchsim.SegmentName(vlan), VLANs: []int{vlan}})
	}
	for i := 1; i <= 5; i++ {
		name, vlan := fmt.Sprintf("web-%d", i), 101+i/4
		f.Nodes = append(f.Nodes, farm.NodeLayout{Name: name, Role: "backend", Domain: switchsim.SegmentName(vlan),
			Adapters: []configdb.AdapterSpec{
				{IP: admin + transport.IP(10+i), Node: name, Index: 0, VLAN: farm.AdminVLAN, Switch: "sw-1", Port: i},
				{IP: data + transport.IP(10+i), Node: name, Index: 1, VLAN: vlan, Switch: "sw-1", Port: 10 + i},
			}})
	}
	return f
}

// DefaultFarm returns the five-node farm of the loopback fabric and the
// simulator. Addresses are derived from the pid so concurrent harness
// runs on one host do not collide: admin adapters on 127.B.0.x, data
// adapters on 127.B.1.x, multicast scopes under 239.G.
func DefaultFarm() *FarmSpec {
	b := byte(2 + os.Getpid()%250)
	g := byte(1 + os.Getpid()%250)
	return newFarm(transport.MakeIP(127, b, 0, 0), transport.MakeIP(127, b, 1, 0), map[int]transport.IP{
		farm.AdminVLAN: transport.MakeIP(239, g, 2, 1),
		101:            transport.MakeIP(239, g, 2, 101),
		102:            transport.MakeIP(239, g, 2, 102),
	})
}

// NetnsFarm returns the five-node farm on routable 10.x addressing for
// the netns fabric: admin adapters on 10.70.0.x/24 (bridge br-gsadm),
// data adapters on 10.71.0.x/16 attached to the per-VLAN bridges.
func NetnsFarm() *FarmSpec {
	return newFarm(transport.MakeIP(10, 70, 0, 0), transport.MakeIP(10, 71, 0, 0), map[int]transport.IP{})
}

// ConfigDB builds the configuration database every Central reads (gsd
// loads it with -configdb): the layout's truth database, distorted by the
// planted lies.
func (f *FarmSpec) ConfigDB() (*configdb.DB, error) {
	db := configdb.New()
	for _, n := range f.Nodes {
		n.Adapters = slices.DeleteFunc(slices.Clone(n.Adapters), func(a configdb.AdapterSpec) bool { return f.DBOmit[a.IP] })
		if err := n.Record(db); err != nil {
			return nil, fmt.Errorf("conformance: configdb %s: %w", n.Name, err)
		}
	}
	for _, ip := range ordered.Keys(f.DBWrongVLAN) {
		if err := db.SetExpectedVLAN(ip, f.DBWrongVLAN[ip]); err != nil {
			return nil, err
		}
	}
	for _, ghost := range f.DBGhosts {
		if err := db.AddAdapter(ghost); err != nil {
			return nil, fmt.Errorf("conformance: configdb ghost %v: %w", ghost.IP, err)
		}
	}
	return db, nil
}

// sortIPStrings sorts dotted-quad strings by address value, matching
// the ordering Central reports group members in.
func sortIPStrings(ss []string) {
	sort.Slice(ss, func(i, j int) bool {
		a, _ := transport.ParseIP(ss[i])
		b, _ := transport.ParseIP(ss[j])
		return a < b
	})
}
