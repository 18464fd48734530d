package switchsim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/transport"
)

func ip(c, d byte) transport.IP { return transport.MakeIP(10, 0, c, d) }

func TestSegmentResolution(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	sw.Connect(2, ip(0, 2), 100)
	sw.Connect(3, ip(0, 3), 200)

	seg1, ok1 := f.SegmentOf(ip(0, 1))
	seg2, ok2 := f.SegmentOf(ip(0, 2))
	seg3, ok3 := f.SegmentOf(ip(0, 3))
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("wired adapters must resolve")
	}
	if seg1 != seg2 || seg1 == seg3 {
		t.Fatalf("segments: %s %s %s", seg1, seg2, seg3)
	}
	if seg1 != "vlan-100" || seg3 != "vlan-200" {
		t.Fatalf("segment names: %s %s", seg1, seg3)
	}
	if _, ok := f.SegmentOf(ip(9, 9)); ok {
		t.Fatal("unwired adapter resolved")
	}
}

func TestVLANSpansSwitches(t *testing.T) {
	f := NewFabric()
	a := f.AddSwitch("sw0")
	b := f.AddSwitch("sw1")
	a.Connect(1, ip(0, 1), 100)
	b.Connect(1, ip(0, 2), 100)
	s1, _ := f.SegmentOf(ip(0, 1))
	s2, _ := f.SegmentOf(ip(0, 2))
	if s1 != s2 {
		t.Fatal("same VLAN on two switches must share a segment (trunked)")
	}
}

func TestPortAndSwitchFailureDisconnect(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	sw.Connect(2, ip(0, 2), 100)
	v0 := f.Version()

	if err := sw.SetPortUp(1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.SegmentOf(ip(0, 1)); ok {
		t.Fatal("adapter on downed port still resolves")
	}
	if _, ok := f.SegmentOf(ip(0, 2)); !ok {
		t.Fatal("sibling port wrongly disconnected")
	}
	if f.Version() == v0 {
		t.Fatal("version did not bump on port down")
	}
	sw.SetPortUp(1, true)
	if _, ok := f.SegmentOf(ip(0, 1)); !ok {
		t.Fatal("port restore did not reconnect")
	}

	sw.SetUp(false)
	for _, a := range []transport.IP{ip(0, 1), ip(0, 2)} {
		if _, ok := f.SegmentOf(a); ok {
			t.Fatalf("adapter %v resolves on dead switch", a)
		}
	}
	sw.SetUp(true)
	if _, ok := f.SegmentOf(ip(0, 1)); !ok {
		t.Fatal("switch restore did not reconnect")
	}
}

func TestSetPortVLANMovesSegment(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	v0 := f.Version()
	if err := sw.SetPortVLAN(1, 200); err != nil {
		t.Fatal(err)
	}
	seg, _ := f.SegmentOf(ip(0, 1))
	if seg != "vlan-200" {
		t.Fatalf("segment after move = %s", seg)
	}
	if f.Version() == v0 {
		t.Fatal("version did not bump on VLAN move")
	}
	// No-op move must not bump.
	v1 := f.Version()
	sw.SetPortVLAN(1, 200)
	if f.Version() != v1 {
		t.Fatal("no-op VLAN move bumped version")
	}
	if err := sw.SetPortVLAN(99, 100); err == nil {
		t.Fatal("SetPortVLAN on missing port must error")
	}
}

func TestConnectConflictsPanic(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	mustPanic(t, func() { sw.Connect(1, ip(0, 2), 100) })
	mustPanic(t, func() { sw.Connect(2, ip(0, 1), 100) })
	mustPanic(t, func() { f.AddSwitch("sw0") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestLocateAndWiring(t *testing.T) {
	f := NewFabric()
	sw0 := f.AddSwitch("sw0")
	sw1 := f.AddSwitch("sw1")
	sw0.Connect(1, ip(0, 1), 100)
	sw0.Connect(2, ip(0, 2), 100)
	sw1.Connect(1, ip(0, 3), 100)

	sw, port, ok := f.Locate(ip(0, 2))
	if !ok || sw.Name() != "sw0" || port != 2 {
		t.Fatalf("Locate = %v %d %v", sw, port, ok)
	}
	if vlan, ok := f.VLANOf(ip(0, 3)); !ok || vlan != 100 {
		t.Fatalf("VLANOf = %d %v", vlan, ok)
	}
	if len(f.Switches()) != 2 {
		t.Fatal("Switches() wrong length")
	}
}

func TestMIBReflectsState(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("core-1")
	sw.Connect(5, ip(0, 5), 300)
	mib := sw.mib

	if v, err := mib.Get(OIDSysName); err != nil || v.String() != "core-1" {
		t.Fatalf("sysName = %v %v", v, err)
	}
	if v, err := mib.Get(OIDNumPorts); err != nil || v.Int != 1 {
		t.Fatalf("numPorts = %v %v", v, err)
	}
	if v, err := mib.Get(OIDPortVLAN(5)); err != nil || v.Int != 300 {
		t.Fatalf("portVLAN = %v %v", v, err)
	}
	if v, err := mib.Get(OIDPortAdapter(5)); err != nil || v.String() != "10.0.0.5" {
		t.Fatalf("portAdapter = %v %v", v, err)
	}
	// Direct state changes surface in the MIB.
	sw.SetPortUp(5, false)
	if v, _ := mib.Get(OIDPortStatus(5)); v.Int != PortDown {
		t.Fatalf("portStatus after down = %v", v)
	}
}

func TestMIBSetMovesVLAN(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	if err := sw.mib.Set(OIDPortVLAN(1), snmp.Integer(250)); err != nil {
		t.Fatal(err)
	}
	if seg, _ := f.SegmentOf(ip(0, 1)); seg != "vlan-250" {
		t.Fatalf("segment after MIB set = %s", seg)
	}
	if sw.Port(1).VLAN != 250 {
		t.Fatal("port state not updated")
	}
}

func TestMIBSetValidation(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	if err := sw.mib.Set(OIDPortVLAN(1), snmp.Integer(0)); err == nil {
		t.Fatal("VLAN 0 accepted")
	}
	if err := sw.mib.Set(OIDPortVLAN(1), snmp.OctetString("ten")); err == nil {
		t.Fatal("string VLAN accepted")
	}
	if err := sw.mib.Set(OIDPortStatus(1), snmp.Integer(7)); err == nil {
		t.Fatal("bogus status accepted")
	}
	if err := sw.mib.Set(OIDPortAdapter(1), snmp.OctetString("x")); err == nil {
		t.Fatal("read-only adapter binding accepted a write")
	}
}

func TestMIBSetPortStatus(t *testing.T) {
	f := NewFabric()
	sw := f.AddSwitch("sw0")
	sw.Connect(1, ip(0, 1), 100)
	if err := sw.mib.Set(OIDPortStatus(1), snmp.Integer(PortDown)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.SegmentOf(ip(0, 1)); ok {
		t.Fatal("SNMP port-down did not disconnect")
	}
}

// End-to-end: SNMP client over the simulated admin network reconfigures a
// port's VLAN, and multicast reachability follows — the paper's exact
// domain-move mechanism.
func TestSNMPReconfigurationEndToEnd(t *testing.T) {
	sched := sim.NewScheduler(31)
	fabric := NewFabric()
	net := netsim.New(sched, fabric)

	sw := fabric.AddSwitch("sw0")
	// Admin VLAN 1: central's adapter + switch management adapter.
	central := net.AddAdapter(ip(1, 1), "central")
	mgmt := net.AddAdapter(ip(1, 2), "sw0-mgmt")
	sw.Connect(1, central.LocalIP(), 1)
	sw.Connect(2, mgmt.LocalIP(), 1)
	// Two domain adapters, initially both in VLAN 100.
	a := net.AddAdapter(ip(2, 1), "nodeA")
	b := net.AddAdapter(ip(2, 2), "nodeB")
	sw.Connect(3, a.LocalIP(), 100)
	sw.Connect(4, b.LocalIP(), 100)

	sw.AttachAgent(mgmt, "farm-admin", transport.PortSNMP)
	client := snmp.NewClient(central, clock{sched}, "farm-admin", 40000)

	heard := 0
	b.Bind(500, func(_, _ transport.Addr, _ []byte) { heard++ })
	b.JoinGroup(transport.BeaconGroup, 500)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 500}

	a.Multicast(500, group, []byte("before"))
	sched.Run()
	if heard != 1 {
		t.Fatalf("pre-move multicast heard %d", heard)
	}

	var setErr error
	done := false
	client.Set(transport.Addr{IP: mgmt.LocalIP(), Port: transport.PortSNMP},
		OIDPortVLAN(3), snmp.Integer(200), func(err error) { setErr, done = err, true })
	sched.Run()
	if !done || setErr != nil {
		t.Fatalf("SNMP set done=%v err=%v", done, setErr)
	}
	a.Multicast(500, group, []byte("after"))
	sched.Run()
	if heard != 1 {
		t.Fatalf("post-move multicast heard %d, want still 1", heard)
	}
	if seg, _ := fabric.SegmentOf(a.LocalIP()); seg != "vlan-200" {
		t.Fatalf("adapter segment = %s", seg)
	}
}

type clock struct{ s *sim.Scheduler }

func (c clock) Now() time.Duration { return c.s.Now() }
func (c clock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

func TestAgentWalkOverPorts(t *testing.T) {
	sched := sim.NewScheduler(33)
	fabric := NewFabric()
	net := netsim.New(sched, fabric)
	sw := fabric.AddSwitch("sw0")
	central := net.AddAdapter(ip(1, 1), "central")
	mgmt := net.AddAdapter(ip(1, 2), "sw0-mgmt")
	sw.Connect(1, central.LocalIP(), 1)
	sw.Connect(2, mgmt.LocalIP(), 1)
	sw.Connect(3, ip(2, 1), 100)
	sw.AttachAgent(mgmt, "farm-admin", transport.PortSNMP)
	client := snmp.NewClient(central, clock{sched}, "farm-admin", 40000)

	var vbs []snmp.VarBind
	client.WalkPrefix(transport.Addr{IP: mgmt.LocalIP(), Port: transport.PortSNMP},
		snmp.MustOID("1.3.6.1.4.1.2.6509.2.1"), func(got []snmp.VarBind, err error) {
			if err != nil {
				t.Errorf("walk: %v", err)
			}
			vbs = got
		})
	sched.Run()
	if len(vbs) != 3 {
		t.Fatalf("walk found %d port VLAN entries, want 3", len(vbs))
	}
	if vbs[0].Value.Int != 1 || vbs[2].Value.Int != 100 {
		t.Fatalf("walk values: %v", vbs)
	}
}
