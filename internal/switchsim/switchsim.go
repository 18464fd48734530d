// Package switchsim simulates the managed Ethernet switches of a
// multi-domain server farm. The switches' VLAN tables are the single
// source of truth for which adapters share a broadcast segment: the Fabric
// implements netsim.SegmentResolver, so rewriting a port's VLAN — directly
// or through the switch's SNMP agent, exactly as GulfStream Central does
// in the paper — instantly re-scopes multicast and unicast reachability.
//
// VLANs are fabric-wide (trunked between switches), matching the paper's
// Océano testbed where private VLANs span the switched fast-Ethernet
// network. A segment is named "vlan-<id>".
package switchsim

import (
	"fmt"
	"sort"

	"repro/internal/ordered"
	"repro/internal/snmp"
	"repro/internal/transport"
)

// SegmentName returns the netsim segment name of a VLAN.
func SegmentName(vlan int) string { return fmt.Sprintf("vlan-%d", vlan) }

// Enterprise MIB layout for the simulated switch (loosely modelled on the
// paper's Cisco 6509 management):
//
//	1.3.6.1.4.1.2.6509.1.1        sysName        (string, ro)
//	1.3.6.1.4.1.2.6509.1.2        numPorts       (int,    ro)
//	1.3.6.1.4.1.2.6509.2.1.<p>    portVLAN       (int,    rw)
//	1.3.6.1.4.1.2.6509.3.1.<p>    portOperStatus (int 1=up 2=down, rw)
//	1.3.6.1.4.1.2.6509.4.1.<p>    portAdapterIP  (string, ro)
var (
	oidBase            = snmp.MustOID("1.3.6.1.4.1.2.6509")
	OIDSysName         = oidBase.Append(1, 1)
	OIDNumPorts        = oidBase.Append(1, 2)
	oidPortVLANBase    = oidBase.Append(2, 1)
	oidPortStatusBase  = oidBase.Append(3, 1)
	oidPortAdapterBase = oidBase.Append(4, 1)
)

// OIDPortVLAN returns the OID holding port p's VLAN assignment.
func OIDPortVLAN(p int) snmp.OID { return oidPortVLANBase.Append(uint32(p)) }

// OIDPortStatus returns the OID holding port p's oper status.
func OIDPortStatus(p int) snmp.OID { return oidPortStatusBase.Append(uint32(p)) }

// OIDPortAdapter returns the OID naming the adapter wired to port p.
func OIDPortAdapter(p int) snmp.OID { return oidPortAdapterBase.Append(uint32(p)) }

// OIDPortAdapterTable is the prefix of the port->adapter wiring table,
// for GETNEXT walks.
func OIDPortAdapterTable() snmp.OID { return oidPortAdapterBase.Append() }

// Port status values.
const (
	PortUp   = 1
	PortDown = 2
)

// Port is one switch port.
type Port struct {
	Number  int
	VLAN    int
	Up      bool
	Adapter transport.IP // 0 if nothing wired
}

// Switch is a simulated managed switch.
type Switch struct {
	name   string
	fabric *Fabric
	ports  map[int]*Port
	up     bool
	mib    *snmp.MapMIB
}

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// Up reports whether the switch is powered.
func (s *Switch) Up() bool { return s.up }

// SetUp powers the switch on or off. A powered-off switch disconnects
// every wired adapter — the paper's switch-failure correlation case.
func (s *Switch) SetUp(up bool) {
	if s.up == up {
		return
	}
	s.up = up
	s.fabric.version++
	// In port-number order, not the map's: the order the network learns
	// of each adapter's change is the order it re-resolves them in.
	for _, p := range s.Ports() {
		s.fabric.changed(p.Adapter)
	}
}

// Ports lists the switch's ports in number order.
func (s *Switch) Ports() []*Port {
	nums := ordered.Keys(s.ports)
	out := make([]*Port, len(nums))
	for i, n := range nums {
		out[i] = s.ports[n]
	}
	return out
}

// Port returns port n, or nil.
func (s *Switch) Port(n int) *Port { return s.ports[n] }

// Connect wires an adapter into port n on the given VLAN, creating the
// port. It panics if the port is occupied or the adapter is already wired
// somewhere: farm wiring is static, a conflict is a construction bug.
func (s *Switch) Connect(n int, adapter transport.IP, vlan int) {
	if p, ok := s.ports[n]; ok && p.Adapter != 0 {
		panic(fmt.Sprintf("switchsim: %s port %d already wired to %v", s.name, n, p.Adapter))
	}
	if prev, ok := s.fabric.where[adapter]; ok {
		panic(fmt.Sprintf("switchsim: adapter %v already wired to %s port %d", adapter, prev.sw.name, prev.port))
	}
	p := &Port{Number: n, VLAN: vlan, Up: true, Adapter: adapter}
	s.ports[n] = p
	s.fabric.where[adapter] = location{sw: s, port: n}
	s.defineMIBPort(p)
	s.fabric.bump(adapter)
}

// SetPortVLAN reassigns port n's VLAN (the VLAN-move primitive).
func (s *Switch) SetPortVLAN(n, vlan int) error {
	p, ok := s.ports[n]
	if !ok {
		return fmt.Errorf("switchsim: %s has no port %d", s.name, n)
	}
	if p.VLAN == vlan {
		return nil
	}
	p.VLAN = vlan
	_ = s.mib.Update(OIDPortVLAN(n), snmp.Integer(int64(vlan)))
	s.fabric.bump(p.Adapter)
	return nil
}

// SetPortUp toggles port n's link state.
func (s *Switch) SetPortUp(n int, up bool) error {
	p, ok := s.ports[n]
	if !ok {
		return fmt.Errorf("switchsim: %s has no port %d", s.name, n)
	}
	if p.Up == up {
		return nil
	}
	p.Up = up
	status := PortDown
	if up {
		status = PortUp
	}
	_ = s.mib.Update(OIDPortStatus(n), snmp.Integer(int64(status)))
	s.fabric.bump(p.Adapter)
	return nil
}

// AttachAgent binds an SNMP agent serving this switch's MIB to the given
// management endpoint (an adapter on the administrative VLAN) at a UDP
// port: transport.PortSNMP in the simulator, an unprivileged one on a
// real host.
func (s *Switch) AttachAgent(ep transport.Endpoint, community string, port uint16) *snmp.Agent {
	return snmp.NewAgentOn(ep, community, s.mib, port)
}

func (s *Switch) defineMIBPort(p *Port) {
	s.mib.Define(OIDPortVLAN(p.Number), snmp.Integer(int64(p.VLAN)), true)
	st := PortDown
	if p.Up {
		st = PortUp
	}
	s.mib.Define(OIDPortStatus(p.Number), snmp.Integer(int64(st)), true)
	s.mib.Define(OIDPortAdapter(p.Number), snmp.OctetString(p.Adapter.String()), false)
	_ = s.mib.Update(OIDNumPorts, snmp.Integer(int64(len(s.ports))))
}

// mibSet applies SNMP SETs to switch state. Called via MapMIB.OnSet.
func (s *Switch) mibSet(oid snmp.OID, v snmp.Value) {
	if oid.HasPrefix(oidPortVLANBase) && len(oid) == len(oidPortVLANBase)+1 {
		port := int(oid[len(oid)-1])
		if p, ok := s.ports[port]; ok && v.Kind == snmp.KindInteger {
			if p.VLAN != int(v.Int) {
				p.VLAN = int(v.Int)
				s.fabric.bump(p.Adapter)
			}
		}
		return
	}
	if oid.HasPrefix(oidPortStatusBase) && len(oid) == len(oidPortStatusBase)+1 {
		port := int(oid[len(oid)-1])
		if p, ok := s.ports[port]; ok && v.Kind == snmp.KindInteger {
			up := v.Int == PortUp
			if p.Up != up {
				p.Up = up
				s.fabric.bump(p.Adapter)
			}
		}
	}
}

func (s *Switch) mibValidate(oid snmp.OID, v snmp.Value) error {
	switch {
	case oid.HasPrefix(oidPortVLANBase):
		if v.Kind != snmp.KindInteger || v.Int < 1 || v.Int > 4094 {
			return fmt.Errorf("%w: VLAN id %v", snmp.ErrBadValue, v)
		}
	case oid.HasPrefix(oidPortStatusBase):
		if v.Kind != snmp.KindInteger || (v.Int != PortUp && v.Int != PortDown) {
			return fmt.Errorf("%w: port status %v", snmp.ErrBadValue, v)
		}
	}
	return nil
}

type location struct {
	sw   *Switch
	port int
}

// Fabric is the collection of switches in the farm. It implements
// netsim.SegmentResolver — adapters reach each other exactly when both
// hang off powered switches, live ports, and the same VLAN — and
// netsim.NotifyingResolver, attributing every topology change to the
// adapter it affects so the network's segment cache updates incrementally.
type Fabric struct {
	switches map[string]*Switch
	names    []string
	where    map[transport.IP]location
	version  uint64
	onIP     func(transport.IP)
	onBulk   func()
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		switches: make(map[string]*Switch),
		where:    make(map[transport.IP]location),
		version:  1,
	}
}

// Notify implements netsim.NotifyingResolver.
func (f *Fabric) Notify(perIP func(transport.IP), bulk func()) {
	f.onIP, f.onBulk = perIP, bulk
}

// bump records a topology change attributed to one adapter.
func (f *Fabric) bump(ip transport.IP) {
	f.version++
	f.changed(ip)
}

func (f *Fabric) changed(ip transport.IP) {
	if f.onIP != nil && ip != 0 {
		f.onIP(ip)
	}
}

// AddSwitch creates a switch.
func (f *Fabric) AddSwitch(name string) *Switch {
	if _, dup := f.switches[name]; dup {
		panic("switchsim: duplicate switch " + name)
	}
	s := &Switch{name: name, fabric: f, ports: make(map[int]*Port), up: true, mib: snmp.NewMapMIB()}
	s.mib.Define(OIDSysName, snmp.OctetString(name), false)
	s.mib.Define(OIDNumPorts, snmp.Integer(0), false)
	s.mib.OnSet = s.mibSet
	s.mib.Validate = s.mibValidate
	f.switches[name] = s
	f.names = append(f.names, name)
	sort.Strings(f.names)
	f.version++ // a fresh switch has no wired adapters: nothing to re-resolve
	return s
}

// Switch returns the named switch, or nil.
func (f *Fabric) Switch(name string) *Switch { return f.switches[name] }

// Switches lists switches in name order.
func (f *Fabric) Switches() []*Switch {
	out := make([]*Switch, len(f.names))
	for i, n := range f.names {
		out[i] = f.switches[n]
	}
	return out
}

// Locate returns the switch and port an adapter is wired to.
func (f *Fabric) Locate(adapter transport.IP) (sw *Switch, port int, ok bool) {
	loc, ok := f.where[adapter]
	if !ok {
		return nil, 0, false
	}
	return loc.sw, loc.port, true
}

// SegmentOf implements netsim.SegmentResolver.
func (f *Fabric) SegmentOf(ip transport.IP) (string, bool) {
	loc, ok := f.where[ip]
	if !ok {
		return "", false
	}
	if !loc.sw.up {
		return "", false
	}
	p := loc.sw.ports[loc.port]
	if p == nil || !p.Up {
		return "", false
	}
	return SegmentName(p.VLAN), true
}

// Version implements netsim.SegmentResolver.
func (f *Fabric) Version() uint64 { return f.version }

// VLANOf returns the VLAN an adapter's port is assigned to.
func (f *Fabric) VLANOf(adapter transport.IP) (int, bool) {
	loc, ok := f.where[adapter]
	if !ok {
		return 0, false
	}
	return loc.sw.ports[loc.port].VLAN, true
}
