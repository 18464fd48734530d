package conformance

import (
	"fmt"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// simWorld is the simulator world: the suite's farm as a *farm.Farm built
// from the spec's layout, with gsd's -fast timers, the database gsd
// loads (lies included), a journal per Central, and a flight recorder
// that keeps every record. A suite plays through the same H in virtual
// time, so a run is deterministic and takes a fraction of a second.
type simWorld struct {
	*farm.Farm
	spec *FarmSpec
}

// newSim builds and boots the spec's farm in the simulator.
func newSim(spec *FarmSpec) (world, error) {
	cfg := core.DefaultConfig()
	cfg.Fast()
	cc := central.DefaultConfig()
	cc.Community = spec.Community
	f, err := farm.Build(farm.Spec{Seed: 1, Layout: &spec.Layout, Core: cfg, Central: cc,
		Journal: true, Trace: true, TraceCapacity: 1 << 14}) // close fails a run that wraps it
	if err != nil {
		return nil, err
	}
	db, err := spec.ConfigDB()
	if err != nil {
		return nil, err
	}
	*f.DB = *db // every Central already holds f.DB
	f.Start()
	return &simWorld{Farm: f, spec: spec}, nil
}

// fault records a harness action the farm does not trace itself, as the
// real-daemon world records it in the merged trace.
func (w *simWorld) fault(node, detail string) {
	w.Trace.Record(trace.Record{T: w.Now(), Kind: trace.KFaultInjected, Node: node, Detail: detail})
}

// RestartNode implements check.Target as a gsd restart: the node's
// Central reopens its journal from what its last life stored.
func (w *simWorld) RestartNode(node string) error {
	if j := w.Journals[node]; j != nil && !w.Daemons[node].Running() {
		reopened, err := j.Reopen()
		if err != nil {
			return err
		}
		w.Centrals[node].SetJournal(reopened)
		w.Journals[node] = reopened
	}
	return w.Farm.RestartNode(node)
}

// MoveNodeToDomain implements check.Target: the active Central moves the
// node through the simulated switch's SNMP agent.
func (w *simWorld) MoveNodeToDomain(node, toDomain string, done func(error)) error {
	w.fault(node, "planned move to "+toDomain)
	return w.Farm.MoveNodeToDomain(node, toDomain, done)
}

// SetSegmentLoss implements check.Target, recording a fault against
// every adapter on the segment as the real-daemon world injects one.
func (w *simWorld) SetSegmentLoss(segment string, loss float64) {
	for _, n := range w.spec.Nodes {
		for _, a := range n.Adapters {
			if switchsim.SegmentName(w.VLANOf(a.IP)) == segment {
				w.fault(a.Node, fmt.Sprintf("adapter %v loss %.2f", a.IP, max(loss, 0)))
			}
		}
	}
	w.Farm.SetSegmentLoss(segment, loss)
}

// Topology implements world: the active Central's document.
func (w *simWorld) Topology(verify bool) (*central.Topology, error) {
	node := w.ActiveCentralNode()
	if node == "" {
		return nil, fmt.Errorf("conformance: no active Central")
	}
	return w.Centrals[node].Topology(node, w.Daemons[node].HostingCentral(), verify), nil
}

// Records implements world: the farm's one recorder holds the whole
// chronology.
func (w *simWorld) Records() []trace.Record { return w.Trace.Snapshot() }

// VLANOf implements world from the simulated switches.
func (w *simWorld) VLANOf(ip transport.IP) int {
	vlan, _ := w.Fabric.VLANOf(ip)
	return vlan
}

// close implements world; there is nothing to stop, but a recorder that
// wrapped has lost records the verdict needs.
func (w *simWorld) close() (int, []string, error) {
	if lost := w.Trace.Dropped(); lost > 0 {
		return 1, nil, fmt.Errorf("conformance: the flight recorder wrapped and lost %d records", lost)
	}
	return 1, nil, nil
}
