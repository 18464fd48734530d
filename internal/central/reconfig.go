package central

import (
	"fmt"
	"slices"

	"repro/internal/configdb"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/ordered"
	"repro/internal/snmp"
	"repro/internal/switchsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Verification and dynamic reconfiguration — Central's roles 1 and 3 in
// paper §2.2.

// Verify compares the discovered topology against the configuration
// database, publishes a VerifyMismatch event per finding, and (when
// DisableConflicts is set) orders wrong-segment adapters disabled.
func (c *Central) Verify() []configdb.Mismatch {
	if c.db == nil || !c.active {
		return nil
	}
	findings := c.db.Verify(c.Groups())
	for _, m := range findings {
		c.publish(event.Event{Kind: event.VerifyMismatch, Adapter: m.Adapter,
			Detail: m.String()})
		if c.cfg.DisableConflicts && m.Kind == configdb.WrongSegment {
			c.DisableAdapter(m.Adapter, m.String())
		}
	}
	return findings
}

// DisableAdapter sends a Disable order for the adapter to its owning
// node's administrative adapter (the only one Central can reach).
func (c *Central) DisableAdapter(ip transport.IP, reason string) bool {
	if !c.active || c.ep == nil {
		return false
	}
	admin, ok := c.adminAdapterFor(ip)
	if !ok {
		return false
	}
	msg := &wire.Disable{Target: ip, Reason: reason}
	pkt := wire.NewPacket(msg)
	_ = c.ep.Unicast(transport.PortMember,
		transport.Addr{IP: admin, Port: transport.PortMember}, pkt.Bytes())
	pkt.Free()
	c.publish(event.Event{Kind: event.AdapterDisabled, Adapter: ip, Detail: reason})
	return true
}

// adminAdapterFor finds the administrative adapter of the node owning ip,
// preferring live view data and falling back to the database.
func (c *Central) adminAdapterFor(ip transport.IP) (transport.IP, bool) {
	node := ""
	if a, ok := c.st.Adapters[ip]; ok {
		node = a.Member.Node
	} else if c.db != nil {
		if spec, ok := c.db.Adapter(ip); ok {
			node = spec.Node
		}
	}
	if node == "" {
		return 0, false
	}
	var admin transport.IP
	c.eachNodeAdapter(node, func(aip transport.IP) bool {
		if a, ok := c.st.Adapters[aip]; ok && a.Member.Admin {
			admin = aip
		} else if c.db != nil {
			if spec, ok := c.db.Adapter(aip); ok && spec.Index == 0 {
				admin = aip
			}
		}
		return admin == 0
	})
	return admin, admin != 0
}

// DiscoverWiring walks every registered switch's port tables over SNMP
// and learns which adapter is wired to which switch — implementing the
// paper's §3 plan: "In the future, GulfStream will independently identify
// these connections by querying the routers and switches directly using
// SNMP." Once discovered, switch-failure correlation no longer depends on
// the configuration database. done receives the wiring (switch name ->
// adapters) and the first error, after all switches have been walked.
//
// api: ROADMAP item 23 decides whether Central walks the wiring.
func (c *Central) DiscoverWiring(done func(map[string][]transport.IP, error)) {
	if done == nil {
		done = func(map[string][]transport.IP, error) {}
	}
	if !c.active || c.snmp == nil {
		done(nil, fmt.Errorf("central: not active"))
		return
	}
	names := ordered.Keys(c.switchAgents)
	if len(names) == 0 {
		done(map[string][]transport.IP{}, nil)
		return
	}
	result := make(map[string][]transport.IP, len(names))
	var firstErr error
	remaining := len(names)
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		if firstErr == nil {
			c.snmpWiring = result
			c.snmpSwitchOf = make(map[transport.IP]string)
			for _, sw := range names {
				for _, ip := range result[sw] {
					c.snmpSwitchOf[ip] = sw
				}
			}
		}
		done(result, firstErr)
	}
	for _, name := range names {
		name := name
		agent := c.switchAgents[name]
		c.snmp.WalkPrefix(agent, switchsim.OIDPortAdapterTable(),
			func(vbs []snmp.VarBind, err error) {
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("central: walking %s: %w", name, err)
				}
				for _, vb := range vbs {
					if ip, ok := transport.ParseIP(vb.Value.String()); ok && ip != 0 {
						result[name] = append(result[name], ip)
					}
				}
				slices.Sort(result[name])
				finish()
			})
	}
}

// MoveAdapter relocates one adapter to a new VLAN by rewriting its switch
// port over SNMP. The change is registered as expected, so the resulting
// departure/join pair is reported as a move with failure notifications
// suppressed. done receives the SNMP outcome.
func (c *Central) MoveAdapter(ip transport.IP, vlan int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if !c.active || c.snmp == nil {
		done(fmt.Errorf("central: not active"))
		return
	}
	if c.db == nil {
		done(fmt.Errorf("central: no configuration database"))
		return
	}
	spec, ok := c.db.Adapter(ip)
	if !ok {
		done(fmt.Errorf("central: adapter %v not in database", ip))
		return
	}
	agent, ok := c.switchAgents[spec.Switch]
	if !ok {
		done(fmt.Errorf("central: no agent registered for switch %q", spec.Switch))
		return
	}
	// Register the expectation BEFORE the SET: the departure may be
	// reported before the SNMP response returns.
	c.commit(journal.Record{Kind: journal.RecMoveExpect, Adapter: ip,
		Deadline: c.clock.Now() + c.cfg.MoveWindow})
	// Announce the intent before the VLAN rewrite lands: traffic-routing
	// subscribers (the serving plane) drain the node now, instead of
	// discovering the move through failure detection after the fact.
	c.publish(event.Event{Kind: event.MoveStarted, Adapter: ip, Node: spec.Node,
		Detail: fmt.Sprintf("to %s", switchsim.SegmentName(vlan))})
	c.snmp.Set(agent, switchsim.OIDPortVLAN(spec.Port), snmp.Integer(int64(vlan)), func(err error) {
		if err != nil {
			c.commit(journal.Record{Kind: journal.RecMoveDone, Adapter: ip})
			c.closeIncidentIfMoveDone(spec.Node)
			done(fmt.Errorf("central: VLAN set for %v failed: %w", ip, err))
			return
		}
		_ = c.db.SetExpectedVLAN(ip, vlan)
		done(nil)
	})
}

// MoveNode relocates a whole node between domains: every non-admin
// adapter's VLAN is rewritten per the vlanByIndex map (adapter index ->
// new VLAN). Adapters whose index is absent stay put. done fires once
// with the first error or nil after all SETs succeed.
func (c *Central) MoveNode(node string, vlanByIndex map[int]int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if c.db == nil {
		done(fmt.Errorf("central: no configuration database"))
		return
	}
	spec, ok := c.db.Node(node)
	if !ok {
		done(fmt.Errorf("central: unknown node %q", node))
		return
	}
	type task struct {
		ip   transport.IP
		vlan int
	}
	var tasks []task
	for _, aip := range spec.Adapters {
		aspec, ok := c.db.Adapter(aip)
		if !ok {
			continue
		}
		if vlan, want := vlanByIndex[aspec.Index]; want {
			tasks = append(tasks, task{ip: aip, vlan: vlan})
		}
	}
	if len(tasks) == 0 {
		done(fmt.Errorf("central: node %q has no adapters matching the move", node))
		return
	}
	remaining := len(tasks)
	failed := false
	for _, t := range tasks {
		c.MoveAdapter(t.ip, t.vlan, func(err error) {
			if err != nil && !failed {
				failed = true
				done(err)
			}
			remaining--
			if remaining == 0 && !failed {
				done(nil)
			}
		})
	}
}
