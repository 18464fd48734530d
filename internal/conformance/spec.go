// Package conformance is the Hive-style multi-process conformance
// harness: it boots farms of real gsd daemons speaking the GulfStream
// protocol over real UDP sockets, injects faults through an emulated
// switching fabric, scrapes every daemon's flight recorder over HTTP,
// and holds the merged farm-wide trace to the same invariant engine
// (internal/check) and incident-span audit (internal/span) the
// deterministic simulator uses — plus a declarative ground-truth diff
// of Central's discovered topology.
//
// One lifecycle (Fabric, fabric.go) boots, kills, restarts and stops
// the daemons, keeps the VLAN each adapter is plugged into, and runs
// the harness-side switch agent. Two substrates differ only in how a
// segment is wired:
//
//   - loopback (loopback.go): every adapter is a 127.x address on the
//     host loopback interface; VLAN membership is emulated by rewriting
//     each adapter's multicast groups to a per-segment 239.x scope
//     (transport.ScopedEndpoint, driven over the daemon's /fabricctl
//     debug handlers). Runs unprivileged — this is the CI fabric.
//   - netns (netns.go): every node lives in its own network namespace,
//     VLAN segments are Linux bridges, and a VLAN move is a veth
//     re-plug between bridges — real kernel broadcast domains. Needs
//     root and iproute2; this is the nightly fabric.
//
// Every scenario suite drives the one Fabric, so it runs unchanged on
// either.
package conformance

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/configdb"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// AdminVLAN is the administrative segment every node's first adapter
// lives on (paper §2: the administrative AMG spans domains).
const AdminVLAN = 1

// AdapterSpec describes one adapter of a farm node.
type AdapterSpec struct {
	IP    transport.IP
	Index int // adapter number on the node; 0 = administrative
	VLAN  int // segment the adapter starts on
	Port  int // emulated switch port the adapter is wired to
}

// NodeSpec describes one farm node.
type NodeSpec struct {
	Name     string
	Adapters []AdapterSpec
}

// FarmSpec is the declarative description of a conformance farm: the
// wiring reality the fabric constructs, and — separately — the lies the
// configuration database may tell about it (the configdb-mismatch
// suites plant divergence here and expect Central to detect it).
type FarmSpec struct {
	Nodes []NodeSpec

	// Segments maps VLAN id -> emulated multicast scope group (loopback
	// fabric only; the netns fabric gives every VLAN a real bridge).
	Segments map[int]transport.IP

	// The emulated switch every adapter is wired to, managed by a
	// harness-side SNMP agent Central drives moves through.
	SwitchName string
	SwitchIP   transport.IP
	SwitchPort uint16
	Community  string

	// Lies planted in the configuration database relative to reality.
	DBWrongVLAN map[transport.IP]int   // adapter -> VLAN the db wrongly expects
	DBGhosts    []configdb.AdapterSpec // adapters that exist only on paper
	DBOmit      map[transport.IP]bool  // real adapters the db never heard of
}

// DefaultFarm returns the standard five-node loopback farm. Addresses
// are derived from the pid so concurrent harness runs on one host do
// not collide: admin adapters on 127.B.0.x (VLAN 1), data adapters on
// 127.B.1.x split across VLANs 101 and 102, multicast scopes under
// 239.G. web-5 holds the highest administrative IP, so it leads the
// admin AMG and hosts Central.
func DefaultFarm() *FarmSpec {
	b := byte(2 + os.Getpid()%250)
	g := byte(1 + os.Getpid()%250)
	f := &FarmSpec{
		Segments: map[int]transport.IP{
			AdminVLAN: transport.MakeIP(239, g, 2, 1),
			101:       transport.MakeIP(239, g, 2, 101),
			102:       transport.MakeIP(239, g, 2, 102),
		},
		SwitchName: "sw-1",
		SwitchIP:   transport.MakeIP(127, b, 0, 254),
		SwitchPort: 10161,
		Community:  "farm-admin",
	}
	dataVLAN := []int{101, 101, 101, 102, 102}
	for i := 1; i <= 5; i++ {
		f.Nodes = append(f.Nodes, NodeSpec{
			Name: fmt.Sprintf("web-%d", i),
			Adapters: []AdapterSpec{
				{IP: transport.MakeIP(127, b, 0, byte(10+i)), Index: 0, VLAN: AdminVLAN, Port: i},
				{IP: transport.MakeIP(127, b, 1, byte(10+i)), Index: 1, VLAN: dataVLAN[i-1], Port: 10 + i},
			},
		})
	}
	return f
}

// NetnsFarm returns the five-node farm on routable 10.x addressing for
// the netns fabric: admin adapters on 10.70.0.x/24 (bridge br-gsadm),
// data adapters on 10.71.0.x/16 attached to the per-VLAN bridges.
func NetnsFarm() *FarmSpec {
	f := &FarmSpec{
		Segments:   map[int]transport.IP{}, // real bridges, no scope groups
		SwitchName: "sw-1",
		SwitchIP:   transport.MakeIP(10, 70, 0, 254),
		SwitchPort: 10161,
		Community:  "farm-admin",
	}
	dataVLAN := []int{101, 101, 101, 102, 102}
	for i := 1; i <= 5; i++ {
		f.Nodes = append(f.Nodes, NodeSpec{
			Name: fmt.Sprintf("web-%d", i),
			Adapters: []AdapterSpec{
				{IP: transport.MakeIP(10, 70, 0, byte(10+i)), Index: 0, VLAN: AdminVLAN, Port: i},
				{IP: transport.MakeIP(10, 71, 0, byte(10+i)), Index: 1, VLAN: dataVLAN[i-1], Port: 10 + i},
			},
		})
	}
	return f
}

// Node returns the named node's spec.
func (f *FarmSpec) Node(name string) (*NodeSpec, bool) {
	for i := range f.Nodes {
		if f.Nodes[i].Name == name {
			return &f.Nodes[i], true
		}
	}
	return nil, false
}

// Adapter resolves an adapter IP to its owning node and spec.
func (f *FarmSpec) Adapter(ip transport.IP) (node string, a AdapterSpec, ok bool) {
	for _, n := range f.Nodes {
		for _, ad := range n.Adapters {
			if ad.IP == ip {
				return n.Name, ad, true
			}
		}
	}
	return "", AdapterSpec{}, false
}

// AdapterOnPort resolves an emulated switch port to the wired adapter.
func (f *FarmSpec) AdapterOnPort(port int) (transport.IP, bool) {
	for _, n := range f.Nodes {
		for _, ad := range n.Adapters {
			if ad.Port == port {
				return ad.IP, true
			}
		}
	}
	return 0, false
}

// AdaptersOf implements span.Topology over the farm spec.
func (f *FarmSpec) AdaptersOf(node string) []transport.IP {
	n, ok := f.Node(node)
	if !ok {
		return nil
	}
	out := make([]transport.IP, len(n.Adapters))
	for i, a := range n.Adapters {
		out[i] = a.IP
	}
	return out
}

// AdminIP returns a node's administrative adapter address (zero if the
// node is unknown).
func (f *FarmSpec) AdminIP(node string) transport.IP {
	n, ok := f.Node(node)
	if !ok {
		return 0
	}
	for _, a := range n.Adapters {
		if a.Index == 0 {
			return a.IP
		}
	}
	return 0
}

// DataIP returns a node's index-1 adapter address (zero if absent).
func (f *FarmSpec) DataIP(node string) transport.IP {
	n, ok := f.Node(node)
	if !ok {
		return 0
	}
	for _, a := range n.Adapters {
		if a.Index == 1 {
			return a.IP
		}
	}
	return 0
}

// Scope returns the loopback fabric's multicast scope for a VLAN.
func (f *FarmSpec) Scope(vlan int) (transport.IP, bool) {
	g, ok := f.Segments[vlan]
	return g, ok
}

// Domains maps segment names ("vlan-101") to VLAN ids for the data
// segments — the vocabulary chaos schedules move nodes between.
func (f *FarmSpec) Domains() map[string]int {
	out := map[string]int{}
	vlans := map[int]bool{}
	for _, n := range f.Nodes {
		for _, a := range n.Adapters {
			vlans[a.VLAN] = true
		}
	}
	for v := range vlans { // order-free: a segment name names one VLAN
		if v != AdminVLAN {
			out[switchsim.SegmentName(v)] = v
		}
	}
	return out
}

// ConfigDB builds the configuration database handed to every daemon:
// the wiring reality, distorted by the planted lies.
func (f *FarmSpec) ConfigDB() (*configdb.DB, error) {
	db := configdb.New()
	for _, n := range f.Nodes {
		for _, a := range n.Adapters {
			if f.DBOmit[a.IP] {
				continue
			}
			vlan := a.VLAN
			if lie, ok := f.DBWrongVLAN[a.IP]; ok {
				vlan = lie
			}
			spec := configdb.AdapterSpec{
				IP: a.IP, Node: n.Name, Index: a.Index, VLAN: vlan,
				Switch: f.SwitchName, Port: a.Port,
			}
			if err := db.AddAdapter(spec); err != nil {
				return nil, fmt.Errorf("conformance: configdb %s/%v: %w", n.Name, a.IP, err)
			}
		}
	}
	for _, ghost := range f.DBGhosts {
		if err := db.AddAdapter(ghost); err != nil {
			return nil, fmt.Errorf("conformance: configdb ghost %v: %w", ghost.IP, err)
		}
	}
	return db, nil
}

// WriteConfigDB saves the (possibly lying) database as the JSON file
// every daemon loads with -configdb.
func (f *FarmSpec) WriteConfigDB(path string) error {
	db, err := f.ConfigDB()
	if err != nil {
		return err
	}
	return db.Save(path)
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
