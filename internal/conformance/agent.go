package conformance

import (
	"fmt"

	"repro/internal/configdb"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// startSwitchAgent starts the harness-side SNMP management agent for the
// layout's one switch, on the switch's management address, and returns
// its stop function. The switch is the simulator's (switchsim), wired
// from the layout, so a hosted Central performs planned moves exactly as
// in the paper and in simulation — an SNMP SET on the port's VLAN object.
// apply is invoked (on its own goroutine — the SNMP reply must not wait
// for the rewiring) for every adapter whose port a SET changed, with the
// port's VLAN. The agent listens on an unprivileged port
// (FarmSpec.SwitchPort) because the harness is not root on the loopback
// fabric.
func startSwitchAgent(spec *FarmSpec, apply func(a configdb.AdapterSpec, vlan int)) (stop func(), err error) {
	rt := transport.NewRuntime()
	rt.RunAsync() // drain socket reads; without this the agent never replies
	sw := spec.Switches[0]
	ep, err := transport.NewUDPEndpoint(rt, sw.IP)
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("conformance: switch agent on %v: %w", sw.IP, err)
	}
	fabric := switchsim.NewFabric()
	s := fabric.AddSwitch(sw.Name)
	for _, n := range spec.Nodes {
		for _, a := range n.Adapters {
			s.Connect(a.Port, a.IP, a.VLAN)
		}
	}
	fabric.Notify(func(ip transport.IP) {
		a, _ := spec.Adapter(ip)
		vlan, _ := fabric.VLANOf(ip)
		go apply(a, vlan)
	}, nil)
	s.AttachAgent(ep, spec.Community, spec.SwitchPort)
	return func() {
		// The endpoint must close before the runtime: Runtime.Close waits
		// for the read loops, which only exit when their sockets do.
		ep.Close()
		rt.Close()
	}, nil
}
