package conformance

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/configdb"
	"repro/internal/farm"
	"repro/internal/ordered"
	"repro/internal/trace"
	"repro/internal/transport"
)

// convergeTimeout bounds every wait for the farm to reach a declared
// state. The -fast daemon profile converges a five-node farm from cold
// in well under 30 seconds; the slack absorbs loaded CI machines.
const convergeTimeout = 120 * time.Second

// ops is fixed step text, the same on every farm.
func ops(text string) func(*FarmSpec) string {
	return func(*FarmSpec) string { return text }
}

// Suites returns the shipped conformance scenarios, in run order. Every
// fault is a line of the check DSL; the expected verification verdicts
// follow from the spec's planted lies and the moves the suite makes
// (FarmSpec.GroundTruth).
func Suites() []Suite {
	// The nodes leader-kill and central-failover pick on the live farm.
	var victim, host string
	return []Suite{{
		// Cold start: beacons form the per-segment AMGs, leaders report,
		// and the admin leader's Central discovers exactly the wiring.
		Name:  "smoke",
		Desc:  "cold-start convergence to the wired topology",
		Steps: []Step{{Wait: converged}},
	}, {
		// Central must evict a SIGKILLed member, report it dead, and
		// close the incident once it is back.
		Name: "node-kill",
		Desc: "SIGKILL a member node, verify eviction, restart, verify rejoin",
		Steps: []Step{
			{Wait: converged, Ops: ops("@0s kill web-2")},
			{Wait: settled, Ops: ops("@0s restart web-2")},
			{Wait: converged},
		},
	}, {
		// A real process crash of the node whose data adapter leads the
		// vlan-101 group forces a leader re-election.
		Name: "leader-kill",
		Desc: "SIGKILL the vlan-101 group leader, verify takeover and rejoin",
		Steps: []Step{
			{Wait: converged, Live: func(h *H) (string, error) {
				doc, err := h.Topology(false)
				if err != nil {
					return "", err
				}
				for _, leader := range ordered.Keys(doc.Groups) {
					ip, _ := transport.ParseIP(leader)
					a, ok := h.Spec.Adapter(ip)
					if ok && a.Index == 1 && h.VLANOf(ip) == 101 && a.Node != h.ActiveCentralNode() {
						victim = a.Node
						return "@0s kill " + victim, nil
					}
				}
				return "", fmt.Errorf("no vlan-101 data leader found in %v", doc.Groups)
			}},
			{Wait: settled, Live: func(*H) (string, error) { return "@0s restart " + victim, nil }},
			{Wait: converged},
		},
	}, {
		// Central relocates web-1's data adapter through the switch agent
		// (SNMP port-VLAN rewrite): a planned move, so no failure
		// notification, the incident closed, verification clean.
		Name: "planned-move",
		Desc: "Central-driven SNMP move of web-1 to vlan-102",
		Steps: []Step{
			{Wait: converged, Ops: ops("@0s move web-1 to vlan-102")},
			{Wait: converged},
		},
	}, {
		// The same re-plug behind Central's back: Central infers an
		// unexpected move, and verification flags the adapter as
		// wrong-segment against the now stale database.
		Name: "surprise-move",
		Desc: "behind-the-back re-plug of web-1; expect unexpected-move + wrong-segment",
		Steps: []Step{
			{Wait: converged, Ops: ops("@0s surprise web-1 to vlan-102")},
			{Wait: converged},
		},
	}, {
		// The next admin leader must activate a Central and rebuild the
		// topology; the old host, restarted, replays its journal and
		// takes the admin leadership back (it holds the highest admin IP).
		Name: "central-failover",
		Desc: "kill the Central host, verify takeover, restart, verify journal replay",
		Steps: []Step{
			{Wait: converged, Live: func(h *H) (string, error) {
				if host = h.ActiveCentralNode(); host == "" {
					return "", errors.New("no active Central")
				}
				return "@0s failover", nil
			}},
			{Wait: "Central takeover", Until: func(h *H) bool {
				next := h.ActiveCentralNode()
				return next != "" && next != host
			}},
			{Wait: settled, Live: func(*H) (string, error) { return "@0s restart " + host, nil }},
			{Wait: "Central back on its first host", Until: func(h *H) bool { return h.ActiveCentralNode() == host }},
			{Wait: converged},
			{Wait: "journal replay on the restarted host", Until: func(h *H) bool {
				for _, r := range h.Records() {
					if r.Kind == trace.KJournalReplayed && r.Node == host {
						return true
					}
				}
				return false
			}},
		},
	}, {
		// The database lies three ways: a wrong VLAN for web-2's data
		// adapter, a ghost node that exists only on paper, and an omitted
		// real adapter. Verification must raise exactly those verdicts.
		Name: "configdb-mismatch",
		Desc: "planted database lies: wrong-segment, missing-adapter, unknown-adapter",
		Prepare: func(f *FarmSpec) {
			f.DBWrongVLAN = map[transport.IP]int{adapterIP(f, "web-2", 1): 102}
			f.DBOmit = map[transport.IP]bool{adapterIP(f, "web-4", 1): true}
			// The ghost reuses the admin/data subnets at host .19.
			sw := f.Switches[0].Name
			f.DBGhosts = []configdb.AdapterSpec{
				{IP: adapterIP(f, "web-1", 0) + 8, Node: "web-9", Index: 0, VLAN: farm.AdminVLAN, Switch: sw, Port: 9},
				{IP: adapterIP(f, "web-1", 1) + 8, Node: "web-9", Index: 1, VLAN: 101, Switch: sw, Port: 19},
			}
		},
		Steps: []Step{{Wait: converged}},
	}, {
		// A composed schedule: an adapter receive failure that heals, a
		// crash-restart, and a lossy segment.
		Name: "chaos",
		Desc: "check-DSL schedule: fail-recv + crash-restart + segment loss",
		Steps: []Step{
			{Wait: converged, Ops: func(f *FarmSpec) string {
				return fmt.Sprintf("@2s fail %v fail-recv for 10s\n@15s kill web-2\n@25s restart web-2\n"+
					"@30s drop vlan-101 0.2 for 8s\nsettle 23s\n", adapterIP(f, "web-1", 1))
			}},
			{Wait: converged},
		},
	}}
}

// adapterIP is the address of a spec node's adapter by index (0 is the
// admin adapter, 1 the data adapter).
func adapterIP(f *FarmSpec, node string, index int) transport.IP {
	n, _ := f.Node(node)
	return n.Adapters[index].IP
}

// SuiteNames lists the shipped suite names in run order.
func SuiteNames() []string {
	var out []string
	for _, s := range Suites() {
		out = append(out, s.Name)
	}
	return out
}

// FindSuites resolves names ("all" selects everything) to suites.
func FindSuites(names []string) ([]Suite, error) {
	all := Suites()
	if len(names) == 1 && names[0] == "all" {
		return all, nil
	}
	var out []Suite
	for _, name := range names {
		i := slices.IndexFunc(all, func(s Suite) bool { return s.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("conformance: unknown suite %q (have %v)", name, SuiteNames())
		}
		out = append(out, all[i])
	}
	return out, nil
}
