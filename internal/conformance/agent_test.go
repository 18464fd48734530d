package conformance

import (
	"testing"
	"time"

	"repro/internal/configdb"
	"repro/internal/snmp"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// The harness switch agent must answer SNMP over real UDP — regression
// for the agent's event loop never being started (requests queued
// forever, every planned move timed out). The client runs on a
// ScopedEndpoint exactly as a hosted Central's does.
func TestSwitchAgentAnswersOverRealUDP(t *testing.T) {
	spec := DefaultFarm()
	applied := make(chan [2]int, 1)
	stop, err := startSwitchAgent(spec, func(a configdb.AdapterSpec, vlan int) {
		applied <- [2]int{a.Port, vlan}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rt := transport.NewRuntime()
	defer rt.Close()
	rt.RunAsync()
	adminIP := spec.Nodes[4].Adapters[0].IP
	inner, err := transport.NewUDPEndpoint(rt, adminIP)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	scope := spec.Segments[1]
	ep := transport.NewScopedEndpoint(inner, scope)

	dataPort := spec.Nodes[0].Adapters[1].Port
	done := make(chan error, 1)
	rt.Post(func() {
		cl := snmp.NewClient(ep, rt, spec.Community, 7410)
		agentAddr := transport.Addr{IP: spec.Switches[0].IP, Port: spec.SwitchPort}
		cl.Set(agentAddr, switchsim.OIDPortVLAN(dataPort), snmp.Integer(102), func(err error) {
			done <- err
		})
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("set failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SNMP response within 5s")
	}
	select {
	case pv := <-applied:
		if pv[0] != dataPort || pv[1] != 102 {
			t.Fatalf("apply hook got port=%d vlan=%d, want port=%d vlan=102", pv[0], pv[1], dataPort)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("apply hook never fired")
	}
}
