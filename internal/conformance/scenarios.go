package conformance

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/configdb"
	"repro/internal/netsim"
	"repro/internal/ordered"
	"repro/internal/trace"
	"repro/internal/transport"
)

// convergeTimeout bounds every wait for the farm to reach a declared
// state. The -fast daemon profile converges a five-node farm from cold
// in well under 30 seconds; the slack absorbs loaded CI machines.
const convergeTimeout = 120 * time.Second

// Suites returns the shipped conformance scenarios, in run order.
func Suites() []Suite {
	return []Suite{
		smokeSuite(),
		nodeKillSuite(),
		leaderKillSuite(),
		plannedMoveSuite(),
		surpriseMoveSuite(),
		centralFailoverSuite(),
		configdbMismatchSuite(),
		chaosSuite(),
	}
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
		found := false
		for _, s := range all {
			if s.Name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("conformance: unknown suite %q (have %v)", name, SuiteNames())
		}
	}
	return out, nil
}

// smokeSuite: cold-start convergence. Five daemons boot from nothing;
// beacons form the per-segment AMGs, leaders report, and the admin
// leader's Central must discover exactly the wired topology.
func smokeSuite() Suite {
	return Suite{
		Name: "smoke",
		Desc: "cold-start convergence to the wired topology",
		Run: func(h *H) error {
			return h.WaitConverged(convergeTimeout)
		},
	}
}

// nodeKillSuite: a member node is SIGKILLed. Central must evict it,
// report it dead, and — once the harness resurrects it — close the
// incident and re-admit every adapter.
func nodeKillSuite() Suite {
	return Suite{
		Name: "node-kill",
		Desc: "SIGKILL a member node, verify eviction, restart, verify rejoin",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			if err := h.KillNode("web-2"); err != nil {
				return err
			}
			if err := h.WaitSettled(convergeTimeout); err != nil {
				return fmt.Errorf("after kill: %w", err)
			}
			if err := h.RestartNode("web-2"); err != nil {
				return err
			}
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			return nil
		},
	}
}

// leaderKillSuite: kill whichever node's data adapter currently leads
// the vlan-101 group, forcing a leader re-election under a real
// process crash, then restart it.
func leaderKillSuite() Suite {
	return Suite{
		Name: "leader-kill",
		Desc: "SIGKILL the vlan-101 group leader, verify takeover and rejoin",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			doc, err := h.Topology(false)
			if err != nil {
				return err
			}
			victim := ""
			for _, leader := range ordered.Keys(doc.Groups) {
				ip, ok := transport.ParseIP(leader)
				if !ok {
					continue
				}
				node, spec, ok := h.Spec.Adapter(ip)
				if ok && spec.Index == 1 && h.F.VLANOf(ip) == 101 && node != h.ActiveCentral() {
					victim = node
					break
				}
			}
			if victim == "" {
				return fmt.Errorf("no vlan-101 data leader found in %v", doc.Groups)
			}
			h.Logf("suite: vlan-101 leader is on %s", victim)
			if err := h.KillNode(victim); err != nil {
				return err
			}
			if err := h.WaitSettled(convergeTimeout); err != nil {
				return fmt.Errorf("after leader kill: %w", err)
			}
			if err := h.RestartNode(victim); err != nil {
				return err
			}
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			return nil
		},
	}
}

// plannedMoveSuite: Central relocates web-1's data adapter to vlan-102
// through the switch agent (SNMP port-VLAN rewrite). The resulting
// regroup must be reported as a planned move — failure notifications
// suppressed, incident closed, verification clean afterwards.
func plannedMoveSuite() Suite {
	return Suite{
		Name: "planned-move",
		Desc: "Central-driven SNMP move of web-1 to vlan-102",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			target := h.Spec.DataIP("web-1")
			if err := h.PlannedMove("web-1", map[int]int{1: 102}); err != nil {
				return err
			}
			// The SNMP SET has been acknowledged; the fabric applies the
			// re-plug asynchronously.
			if err := h.WaitFor("fabric re-plug of "+target.String(), httpMoveTimeout, func() (bool, error) {
				return h.F.VLANOf(target) == 102, nil
			}); err != nil {
				return err
			}
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after planned move: %w", err)
			}
			return nil
		},
	}
}

// surpriseMoveSuite: the same re-plug performed behind Central's back.
// Central must infer an unexpected NodeMoved, and verification must
// flag the adapter as wrong-segment against the (now stale) database.
func surpriseMoveSuite() Suite {
	return Suite{
		Name: "surprise-move",
		Desc: "behind-the-back re-plug of web-1; expect unexpected-move + wrong-segment",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			target := h.Spec.DataIP("web-1")
			if err := h.SurpriseMove(target, 102); err != nil {
				return err
			}
			h.ExpectMismatch("wrong-segment " + target.String())
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after surprise move: %w", err)
			}
			return nil
		},
	}
}

// centralFailoverSuite: SIGKILL the Central host. The next admin
// leader must activate a Central, rebuild the topology, and report the
// dead node; restarting the old host must journal-replay and re-take
// the admin leadership (it holds the highest admin IP).
func centralFailoverSuite() Suite {
	return Suite{
		Name: "central-failover",
		Desc: "kill the Central host, verify takeover, restart, verify journal replay",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			host := h.ActiveCentral()
			if host == "" {
				return fmt.Errorf("no active Central")
			}
			h.Logf("suite: active Central on %s", host)
			if err := h.KillNode(host); err != nil {
				return err
			}
			if err := h.WaitFor("Central takeover", convergeTimeout, func() (bool, error) {
				next := h.ActiveCentral()
				return next != "" && next != host, nil
			}); err != nil {
				return err
			}
			h.Logf("suite: Central took over on %s", h.ActiveCentral())
			if err := h.WaitSettled(convergeTimeout); err != nil {
				return fmt.Errorf("after failover: %w", err)
			}
			if err := h.RestartNode(host); err != nil {
				return err
			}
			if err := h.WaitFor("Central back on "+host, convergeTimeout, func() (bool, error) {
				return h.ActiveCentral() == host, nil
			}); err != nil {
				return err
			}
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			// The restarted host must have folded its journal back in
			// before rebuilding from live reports.
			h.S.Poll()
			for _, r := range h.S.Merged(nil) {
				if r.Kind == trace.KJournalReplayed && r.Node == host {
					return nil
				}
			}
			return fmt.Errorf("restarted Central host %s never journal-replayed", host)
		},
	}
}

// configdbMismatchSuite: the database lies three ways — a wrong VLAN
// for web-2's data adapter, a ghost node that exists only on paper,
// and an omitted real adapter. Verification must raise exactly the
// three corresponding verdict classes and nothing else.
func configdbMismatchSuite() Suite {
	var wrongVLAN, omitted transport.IP
	var ghostAdmin, ghostData transport.IP
	return Suite{
		Name: "configdb-mismatch",
		Desc: "planted database lies: wrong-segment, missing-adapter, unknown-adapter",
		Prepare: func(f *FarmSpec) {
			wrongVLAN = f.DataIP("web-2")
			omitted = f.DataIP("web-4")
			f.DBWrongVLAN = map[transport.IP]int{wrongVLAN: 102}
			f.DBOmit = map[transport.IP]bool{omitted: true}
			// The ghost reuses the admin/data subnets at host .19.
			ghostAdmin = f.AdminIP("web-1") + 8 // .11 -> .19
			ghostData = f.DataIP("web-1") + 8
			f.DBGhosts = []configdb.AdapterSpec{
				{IP: ghostAdmin, Node: "web-9", Index: 0, VLAN: AdminVLAN, Switch: f.SwitchName, Port: 9},
				{IP: ghostData, Node: "web-9", Index: 1, VLAN: 101, Switch: f.SwitchName, Port: 19},
			}
		},
		Run: func(h *H) error {
			h.ExpectMismatch(
				"wrong-segment "+wrongVLAN.String(),
				"missing-adapter "+ghostAdmin.String(),
				"missing-adapter "+ghostData.String(),
				"unknown-adapter "+omitted.String(),
			)
			return h.WaitConverged(convergeTimeout)
		},
	}
}

// chaosSuite: a composed schedule from the internal/check DSL — an
// adapter receive-failure that heals, a crash-restart, and a lossy
// segment — replayed against real daemons through the WallTarget.
func chaosSuite() Suite {
	return Suite{
		Name: "chaos",
		Desc: "check-DSL schedule: fail-recv + crash-restart + segment loss",
		Run: func(h *H) error {
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return err
			}
			sched := check.Schedule{
				Seed: 71,
				Ops: []check.Op{
					{At: 2 * time.Second, Kind: check.OpFailAdapter,
						Adapter: h.Spec.DataIP("web-1"), Mode: netsim.FailRecv, For: 10 * time.Second},
					{At: 15 * time.Second, Kind: check.OpKillNode, Node: "web-2"},
					{At: 25 * time.Second, Kind: check.OpRestartNode, Node: "web-2"},
					{At: 30 * time.Second, Kind: check.OpDropProfile,
						Target: "vlan-101", Loss: 0.2, For: 8 * time.Second},
				},
				Settle: 15 * time.Second,
			}
			h.Logf("suite: running schedule: %s", sched.String())
			tg := NewWallTarget(h)
			defer tg.Stop()
			sched.Run(tg)
			if err := h.WaitConverged(convergeTimeout); err != nil {
				return fmt.Errorf("after chaos: %w", err)
			}
			return nil
		},
	}
}
