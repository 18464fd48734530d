// Package configdb is the farm's expected-topology database: which nodes
// exist, which adapters they own, which switch port each adapter is wired
// to, and which VLAN (domain) each adapter is supposed to live in.
//
// Per the paper (§2.2), only GulfStream Central reads this database — the
// daemons discover topology on their own, and Central "discovers the
// configuration and then identifies inconsistencies via the database"
// rather than the other way around. Central also consults the wiring
// tables here to correlate adapter failures into switch failures (§3).
package configdb

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/transport"
)

// AdapterSpec is the expected record for one network adapter.
type AdapterSpec struct {
	IP     transport.IP `json:"ip"`
	Node   string       `json:"node"`
	Index  int          `json:"index"` // adapter number on the node; 0 = administrative
	VLAN   int          `json:"vlan"`  // expected domain VLAN
	Switch string       `json:"switch"`
	Port   int          `json:"port"`
}

// NodeSpec is the expected record for one server.
type NodeSpec struct {
	Name     string         `json:"name"`
	Domain   string         `json:"domain"` // owning domain ("" = administrative pool)
	Role     string         `json:"role"`   // frontend / backend / dispatcher / admin
	Adapters []transport.IP `json:"adapters"`
}

// DB is the configuration database.
type DB struct {
	adapters map[transport.IP]*AdapterSpec
	nodes    map[string]*NodeSpec
	// onSwitch is the wiring index: switch name -> adapters wired to it,
	// ascending by IP. AddAdapter is the only writer (an adapter's switch
	// never changes afterwards), so it always equals a scan of adapters.
	onSwitch map[string][]transport.IP
}

// New returns an empty database.
func New() *DB {
	return &DB{
		adapters: make(map[transport.IP]*AdapterSpec),
		nodes:    make(map[string]*NodeSpec),
		onSwitch: make(map[string][]transport.IP),
	}
}

// insertIP adds ip to an ascending list, keeping it ascending.
func insertIP(ips []transport.IP, ip transport.IP) []transport.IP {
	i, _ := slices.BinarySearch(ips, ip)
	return slices.Insert(ips, i, ip)
}

// AddNode registers a node (idempotent on name).
func (db *DB) AddNode(name, domain, role string) *NodeSpec {
	if n, ok := db.nodes[name]; ok {
		return n
	}
	n := &NodeSpec{Name: name, Domain: domain, Role: role}
	db.nodes[name] = n
	return n
}

// AddAdapter registers an adapter and links it to its node (creating the
// node if needed). It returns an error on duplicate IP.
func (db *DB) AddAdapter(spec AdapterSpec) error {
	if _, dup := db.adapters[spec.IP]; dup {
		return fmt.Errorf("configdb: duplicate adapter %v", spec.IP)
	}
	cp := spec
	db.adapters[spec.IP] = &cp
	n := db.AddNode(spec.Node, "", "")
	n.Adapters = insertIP(n.Adapters, spec.IP)
	db.onSwitch[spec.Switch] = insertIP(db.onSwitch[spec.Switch], spec.IP)
	return nil
}

// Adapter returns the spec for ip.
func (db *DB) Adapter(ip transport.IP) (AdapterSpec, bool) {
	if a, ok := db.adapters[ip]; ok {
		return *a, true
	}
	return AdapterSpec{}, false
}

// Node returns the spec for name.
func (db *DB) Node(name string) (NodeSpec, bool) {
	if n, ok := db.nodes[name]; ok {
		return *n, true
	}
	return NodeSpec{}, false
}

// Adapters lists all adapter specs in ascending IP order.
func (db *DB) Adapters() []AdapterSpec {
	out := make([]AdapterSpec, 0, len(db.adapters))
	for _, a := range db.adapters {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}

// Nodes lists all node specs in name order.
func (db *DB) Nodes() []NodeSpec {
	out := make([]NodeSpec, 0, len(db.nodes))
	for _, n := range db.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AdaptersOnSwitch lists adapters wired to the named switch in ascending
// IP order (the wiring view used for switch-failure correlation). The
// slice is the database's own index: callers must not modify it (its
// capacity is clipped, so appending to it copies).
func (db *DB) AdaptersOnSwitch(name string) []transport.IP {
	return slices.Clip(db.onSwitch[name])
}

// Switches lists all switch names appearing in the wiring.
func (db *DB) Switches() []string {
	out := make([]string, 0, len(db.onSwitch))
	for s := range db.onSwitch {
		if s != "" {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// SetExpectedVLAN updates an adapter's expected VLAN — Central calls this
// when it performs a planned domain move, so the database stays the
// authority on intent.
func (db *DB) SetExpectedVLAN(ip transport.IP, vlan int) error {
	a, ok := db.adapters[ip]
	if !ok {
		return fmt.Errorf("configdb: unknown adapter %v", ip)
	}
	a.VLAN = vlan
	return nil
}

// SetNodeDomain reassigns a node's owning domain.
func (db *DB) SetNodeDomain(name, domain string) error {
	n, ok := db.nodes[name]
	if !ok {
		return fmt.Errorf("configdb: unknown node %s", name)
	}
	n.Domain = domain
	return nil
}

// fileForm is the JSON persistence shape.
type fileForm struct {
	Nodes    []NodeSpec    `json:"nodes"`
	Adapters []AdapterSpec `json:"adapters"`
}

// MarshalJSON implements json.Marshaler with stable ordering.
func (db *DB) MarshalJSON() ([]byte, error) {
	return json.Marshal(fileForm{Nodes: db.Nodes(), Adapters: db.Adapters()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (db *DB) UnmarshalJSON(data []byte) error {
	var f fileForm
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*db = *New()
	for _, n := range f.Nodes {
		db.AddNode(n.Name, n.Domain, n.Role)
	}
	for _, a := range f.Adapters {
		if err := db.AddAdapter(a); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the database to a JSON file.
func (db *DB) Save(path string) error {
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a database from a JSON file.
func Load(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	db := New()
	if err := json.Unmarshal(data, db); err != nil {
		return nil, err
	}
	return db, nil
}

// MismatchKind classifies a verification finding.
type MismatchKind int

// Mismatch kinds.
const (
	// UnknownAdapter: discovered on the network, absent from the database.
	UnknownAdapter MismatchKind = iota + 1
	// MissingAdapter: in the database, discovered nowhere.
	MissingAdapter
	// WrongSegment: grouped with adapters of a different expected VLAN —
	// the security-relevant case the paper disables adapters over.
	WrongSegment
	// SplitVLAN: one expected VLAN appears as several discovered groups
	// (partition or misconfiguration).
	SplitVLAN
)

func (k MismatchKind) String() string {
	switch k {
	case UnknownAdapter:
		return "unknown-adapter"
	case MissingAdapter:
		return "missing-adapter"
	case WrongSegment:
		return "wrong-segment"
	case SplitVLAN:
		return "split-vlan"
	default:
		return fmt.Sprintf("MismatchKind(%d)", int(k))
	}
}

// Mismatch is one verification finding.
type Mismatch struct {
	Kind    MismatchKind
	Adapter transport.IP // subject adapter (zero for SplitVLAN)
	VLAN    int          // expected VLAN involved
	Detail  string
}

func (m Mismatch) String() string {
	s := m.Kind.String()
	if m.Adapter != 0 {
		s += " " + m.Adapter.String()
	}
	if m.VLAN != 0 {
		s += fmt.Sprintf(" vlan=%d", m.VLAN)
	}
	if m.Detail != "" {
		s += " (" + m.Detail + ")"
	}
	return s
}

// Verify compares the discovered grouping against expectations. The input
// maps each discovered group (keyed by its leader) to its member
// addresses. Findings are deterministic: sorted by kind, then adapter.
//
// The presumed VLAN of a discovered group is the majority expected VLAN of
// its known members; members expecting a different VLAN are WrongSegment.
func (db *DB) Verify(groups map[transport.IP][]transport.IP) []Mismatch {
	var out []Mismatch
	seen := make(map[transport.IP]bool)
	vlanGroups := make(map[int]int) // expected VLAN -> how many groups presume it

	leaders := make([]transport.IP, 0, len(groups))
	for l := range groups {
		leaders = append(leaders, l)
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })

	for _, leader := range leaders {
		members := groups[leader]
		// Majority expected VLAN among known members.
		counts := map[int]int{}
		for _, ip := range members {
			seen[ip] = true
			if spec, ok := db.adapters[ip]; ok {
				counts[spec.VLAN]++
			}
		}
		majority, best := 0, 0
		for vlan, c := range counts {
			if c > best || (c == best && vlan < majority) {
				majority, best = vlan, c
			}
		}
		if majority != 0 {
			vlanGroups[majority]++
		}
		for _, ip := range members {
			spec, ok := db.adapters[ip]
			if !ok {
				out = append(out, Mismatch{Kind: UnknownAdapter, Adapter: ip,
					Detail: fmt.Sprintf("in group led by %v", leader)})
				continue
			}
			if majority != 0 && spec.VLAN != majority {
				out = append(out, Mismatch{Kind: WrongSegment, Adapter: ip, VLAN: spec.VLAN,
					Detail: fmt.Sprintf("grouped with vlan %d (leader %v)", majority, leader)})
			}
		}
	}
	for _, spec := range db.Adapters() {
		if !seen[spec.IP] {
			out = append(out, Mismatch{Kind: MissingAdapter, Adapter: spec.IP, VLAN: spec.VLAN})
		}
	}
	for vlan, n := range vlanGroups {
		if n > 1 {
			out = append(out, Mismatch{Kind: SplitVLAN, VLAN: vlan,
				Detail: fmt.Sprintf("%d separate groups", n)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Adapter != out[j].Adapter {
			return out[i].Adapter < out[j].Adapter
		}
		return out[i].VLAN < out[j].VLAN
	})
	return out
}
