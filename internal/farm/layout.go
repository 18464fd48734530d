package farm

import (
	"fmt"
	"slices"

	"repro/internal/configdb"
	"repro/internal/transport"
)

// Layout is a farm described explicitly: every node, adapter, switch and
// domain, in the order Build wires them. Build lays Spec's generated
// shapes out as one, or takes Spec.Layout as given; the conformance
// harness describes its real-daemon farms with the same type.
type Layout struct {
	// Nodes in build order; a zone's nodes follow one another.
	Nodes []NodeLayout
	// Switches in build order; a zone's are built before its first node.
	Switches []SwitchLayout
	// Domains are the customer domains nodes move between.
	Domains []DomainLayout
}

// NodeLayout is one node: its place in the farm and its adapters, index
// 0 the administrative one, as the truth database records them.
type NodeLayout struct {
	Name   string
	Role   string // "admin", "frontend", "backend", "uniform", "zone"
	Domain string
	Zone   int
	// Adapters carry their address, index, VLAN, switch and port.
	Adapters []configdb.AdapterSpec
}

// SwitchLayout is one managed switch and its management adapter, which
// hosts the switch's SNMP agent on the zone's admin VLAN.
type SwitchLayout struct {
	Name string
	Zone int
	IP   transport.IP
	VLAN int
	Port int
}

// DomainLayout names a domain and its VLANs. A move puts each adapter of
// a node on the VLAN at the place its laid-out VLAN holds in the node's
// own domain: a front-end's front and back adapters on the target's
// front and back VLANs, a back-end's one data adapter on the back VLAN.
type DomainLayout struct {
	Name  string
	VLANs []int
}

// Node returns the named node.
func (l *Layout) Node(name string) (*NodeLayout, bool) {
	i := slices.IndexFunc(l.Nodes, func(n NodeLayout) bool { return n.Name == name })
	if i < 0 {
		return nil, false
	}
	return &l.Nodes[i], true
}

// Adapter returns the laid-out record of the adapter at ip.
func (l *Layout) Adapter(ip transport.IP) (configdb.AdapterSpec, bool) {
	for _, n := range l.Nodes {
		for _, a := range n.Adapters {
			if a.IP == ip {
				return a, true
			}
		}
	}
	return configdb.AdapterSpec{}, false
}

// AdaptersOf lists the node's adapters (span.Topology).
func (l *Layout) AdaptersOf(node string) []transport.IP {
	n, ok := l.Node(node)
	if !ok {
		return nil
	}
	out := make([]transport.IP, len(n.Adapters))
	for i, a := range n.Adapters {
		out[i] = a.IP
	}
	return out
}

func (l *Layout) domain(name string) *DomainLayout {
	i := slices.IndexFunc(l.Domains, func(d DomainLayout) bool { return d.Name == name })
	if i < 0 {
		return nil
	}
	return &l.Domains[i]
}

// Moves resolves moving a node to a domain: the VLAN each of its adapters
// goes to, by adapter index (see DomainLayout).
func (l *Layout) Moves(node, toDomain string) (map[int]int, error) {
	to := l.domain(toDomain)
	if to == nil {
		return nil, fmt.Errorf("farm: unknown domain %q", toDomain)
	}
	n, ok := l.Node(node)
	if !ok {
		return nil, fmt.Errorf("farm: unknown node %q", node)
	}
	moves := map[int]int{}
	if from := l.domain(n.Domain); from != nil {
		for _, a := range n.Adapters {
			if i := slices.Index(from.VLANs, a.VLAN); i >= 0 && i < len(to.VLANs) {
				moves[a.Index] = to.VLANs[i]
			}
		}
	}
	if len(moves) == 0 {
		return nil, fmt.Errorf("farm: node %q (role %s) is not movable", node, n.Role)
	}
	return moves, nil
}

// Record enters the node into a truth database: each adapter as laid
// out, then the node's domain and role. Build records every node so; the
// conformance harness records its farm so before planting its lies.
func (n *NodeLayout) Record(db *configdb.DB) error {
	for _, a := range n.Adapters {
		if err := db.AddAdapter(a); err != nil {
			return err
		}
	}
	node := db.AddNode(n.Name, n.Domain, n.Role) // AddAdapter made it bare
	node.Domain, node.Role = n.Domain, n.Role
	return nil
}

// laying hands out addresses and ports in build order, as layout lays
// the generated shapes out.
type laying struct {
	l        Layout
	adapters []configdb.AdapterSpec // every node's adapters, back to back
	ordinals [97]int                // per-class ordinals for IP allocation
	ports    []int                  // per-switch port counters, by index in l.Switches
	// The zone being laid out: its switches [first, first+n), which its
	// nodes are dealt over round-robin, dealt so far.
	zone, first, n, dealt int
}

// nextIP allocates 10.<class>.<hi>.<lo> for the next adapter of a VLAN
// class.
func (b *laying) nextIP(class int) transport.IP {
	ordinal := b.ordinals[class]
	b.ordinals[class]++
	return transport.MakeIP(10, byte(class), byte(ordinal/200), byte(ordinal%200+1))
}

// startZone lays out enough switches for a zone's nodes, each with its
// management adapter on the zone's admin VLAN.
func (b *laying) startZone(zone int, prefix string, adminVLAN, nodes, perSwitch int) {
	b.zone, b.first, b.n, b.dealt = zone, len(b.l.Switches), (nodes+perSwitch-1)/perSwitch, 0
	for i := 0; i < b.n; i++ {
		b.ports = append(b.ports, 1)
		b.l.Switches = append(b.l.Switches, SwitchLayout{
			Name: fmt.Sprintf("%ssw-%02d", prefix, i), Zone: zone,
			IP: b.nextIP(9), VLAN: adminVLAN, Port: 1,
		})
	}
}

// node lays out the zone's next node on its next switch: an adapter per
// VLAN, the first the admin adapter.
func (b *laying) node(name, role, domain string, vlans ...int) {
	sw := b.first + b.dealt%b.n
	b.dealt++
	start := len(b.adapters)
	for idx, vlan := range vlans {
		class := 1
		if idx > 0 {
			class = vlan % 97 // spreads VLANs over IP classes deterministically
			if class <= 1 {
				class += 2
			}
		}
		b.ports[sw]++
		b.adapters = append(b.adapters, configdb.AdapterSpec{
			IP: b.nextIP(class), Node: name, Index: idx, VLAN: vlan,
			Switch: b.l.Switches[sw].Name, Port: b.ports[sw],
		})
	}
	b.l.Nodes = append(b.l.Nodes, NodeLayout{Name: name, Role: role, Domain: domain, Zone: b.zone,
		Adapters: b.adapters[start:len(b.adapters):len(b.adapters)]})
}

// layout returns the farm the spec describes: its generated shape laid
// out (zoned, or one zone of admin, uniform and domain nodes) in one pass
// of preallocated appends, or spec.Layout when it sets no shape.
func layout(spec Spec) (*Layout, error) {
	b := &laying{}
	perSwitch := spec.NodesPerSwitch
	if spec.Zones > 0 {
		b.l.Nodes = make([]NodeLayout, 0, spec.Zones*spec.ZoneNodes)
		b.adapters = make([]configdb.AdapterSpec, 0, spec.Zones*(spec.ZoneNodes*spec.ZoneAdapters+1))
		vlans := make([]int, 0, spec.ZoneAdapters+1)
		for zi := 0; zi < spec.Zones; zi++ {
			prefix := fmt.Sprintf("z%03d-", zi)
			admin := zoneAdminVLAN(zi)
			b.startZone(zi, prefix, admin, spec.ZoneNodes, perSwitch)
			domain := fmt.Sprintf("zone-%03d", zi)
			for i := 0; i < spec.ZoneNodes; i++ {
				vlans = vlans[:0]
				for a := 0; a < spec.ZoneAdapters; a++ {
					vlans = append(vlans, admin+a)
				}
				if i == 0 {
					// Gateway: the extra backbone adapter rides at a non-admin
					// index, so backbone leadership never hosts a zone Central.
					vlans = append(vlans, BackboneVLAN)
				}
				b.node(fmt.Sprintf("%sn%03d", prefix, i), "zone", domain, vlans...)
			}
		}
		return &b.l, nil
	}

	k := spec.UniformAdapters
	if k <= 0 {
		k = 3
	}
	totalNodes := spec.AdminNodes + spec.UniformNodes
	totalAdapters := spec.AdminNodes + spec.UniformNodes*k
	for _, d := range spec.Domains {
		totalNodes += d.FrontEnds + d.BackEnds
		totalAdapters += 3*d.FrontEnds + 2*d.BackEnds
	}
	if totalNodes == 0 {
		if spec.Layout != nil && len(spec.Layout.Nodes) > 0 {
			return spec.Layout, nil
		}
		return nil, fmt.Errorf("farm: spec builds zero nodes")
	}
	b.l.Nodes = make([]NodeLayout, 0, totalNodes)
	b.adapters = make([]configdb.AdapterSpec, 0, totalAdapters)
	b.startZone(0, "", AdminVLAN, totalNodes, perSwitch)
	// Administrative nodes: single admin adapter.
	for i := 0; i < spec.AdminNodes; i++ {
		b.node(fmt.Sprintf("mgmt-%02d", i), "admin", "", AdminVLAN)
	}
	// Uniform testbed nodes.
	vlans := []int{AdminVLAN}
	for a := 1; a < k; a++ {
		vlans = append(vlans, 10+a)
	}
	for i := 0; i < spec.UniformNodes; i++ {
		b.node(fmt.Sprintf("node-%03d", i), "uniform", "", vlans...)
	}
	// Domain nodes.
	for di, dom := range spec.Domains {
		front, back := FrontVLAN(di), BackVLAN(di)
		b.l.Domains = append(b.l.Domains, DomainLayout{Name: dom.Name, VLANs: []int{front, back}})
		for i := 0; i < dom.FrontEnds; i++ {
			// Admin (circle), dispatcher-facing (triangle), internal (square).
			b.node(fmt.Sprintf("%s-fe-%02d", dom.Name, i), "frontend", dom.Name, AdminVLAN, front, back)
		}
		for i := 0; i < dom.BackEnds; i++ {
			b.node(fmt.Sprintf("%s-be-%02d", dom.Name, i), "backend", dom.Name, AdminVLAN, back)
		}
	}
	return &b.l, nil
}
