package farm

import (
	"fmt"
	"time"

	"repro/internal/amg"
	"repro/internal/check"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// The farm is both the thing the scenario engine injects faults into
// (check.Target) and the live-state oracle the invariant checkers
// consult (check.Context). Both are satisfied structurally so check
// never has to import farm.
var (
	_ check.Target  = (*Farm)(nil)
	_ check.Context = (*Farm)(nil)
)

// Now returns the current virtual time under either kernel.
func (f *Farm) Now() time.Duration {
	if f.Shards != nil {
		return f.Shards.Now()
	}
	return f.Sched.Now()
}

// After schedules fn on the virtual clock (shard 0's in a sharded farm,
// like Clock).
func (f *Farm) After(d time.Duration, fn func()) { f.schedFor("").AfterFunc(d, fn) }

// SetSegmentLoss overrides one segment's loss rate: loss in [0, 1]
// degrades it (1 is a full partition); a negative loss heals the
// segment back to the profile Build gave it.
func (f *Farm) SetSegmentLoss(segment string, loss float64) {
	p := f.linkProfile(segment)
	if loss >= 0 {
		if loss > 1 {
			loss = 1
		}
		p.Loss = loss
	}
	f.Net.SetSegmentProfile(segment, p)
}

// ViewOf returns the committed membership of the adapter at ip, false
// when the owning daemon is down or the adapter holds no view.
func (f *Farm) ViewOf(ip transport.IP) (amg.Membership, bool) {
	node, ok := f.owner[ip]
	if !ok {
		return amg.Membership{}, false
	}
	d := f.Daemons[node]
	if !d.Running() {
		return amg.Membership{}, false
	}
	return d.View(ip)
}

// JournalDrift reports the divergence between the named node's journal
// fold and its live Central state ("" when consistent or not relevant).
func (f *Farm) JournalDrift(node string) string {
	c, ok := f.Centrals[node]
	if !ok {
		return ""
	}
	return c.JournalDrift()
}

// CheckTopology captures the farm's static shape for the scenario
// generator. Segments excludes the admin VLAN: partitioning the control
// segment tests Central redundancy, which the failover op already
// covers with a bounded blast radius.
func (f *Farm) CheckTopology() check.Topology {
	var topo check.Topology
	for _, name := range f.order {
		info := f.Nodes[name]
		topo.Nodes = append(topo.Nodes, check.NodeTopo{
			Name:     name,
			Role:     info.Role,
			Domain:   info.Domain,
			Adapters: append([]transport.IP(nil), info.Adapters...),
			Switch:   info.Switch,
		})
	}
	for _, sw := range f.Fabric.Switches() {
		topo.Switches = append(topo.Switches, sw.Name())
	}
	seen := map[string]bool{}
	for _, name := range f.order {
		for _, ip := range f.Nodes[name].Adapters {
			seg, ok := f.Fabric.SegmentOf(ip)
			if ok && seg != switchsim.SegmentName(AdminVLAN) && !seen[seg] {
				seen[seg] = true
				topo.Segments = append(topo.Segments, seg)
			}
		}
	}
	topo.Domains = f.Domains()
	return topo
}

// ConvergenceFailures audits the farm after a chaos run has settled:
// every daemon back up, every adapter segmented and holding a view, one
// view per segment, and the active Central stable, complete, and
// verified against the switches. It returns one message per failed
// property (empty means converged).
func (f *Farm) ConvergenceFailures() []string {
	var out []string
	bySegment := map[string]map[string]bool{}
	for _, name := range f.order {
		d := f.Daemons[name]
		if !d.Running() {
			out = append(out, fmt.Sprintf("node %s still down", name))
			continue
		}
		for _, ip := range f.Nodes[name].Adapters {
			seg, connected := f.SegmentOf(ip)
			if !connected {
				out = append(out, fmt.Sprintf("adapter %v has no segment", ip))
				continue
			}
			v, ok := d.View(ip)
			if !ok {
				out = append(out, fmt.Sprintf("adapter %v (node %s) has no committed view", ip, name))
				continue
			}
			set := bySegment[seg]
			if set == nil {
				set = map[string]bool{}
				bySegment[seg] = set
			}
			set[v.String()] = true
		}
	}
	for seg, views := range bySegment {
		if len(views) != 1 {
			out = append(out, fmt.Sprintf("segment %s did not converge to one view: %v", seg, views))
		}
	}
	c := f.ActiveCentral()
	if c == nil {
		return append(out, "no active central")
	}
	if !c.Stable() {
		out = append(out, "central not stable after quiet period")
	}
	total := 0
	for _, members := range c.Groups() {
		total += len(members)
	}
	if want := len(f.adapters); total != want {
		out = append(out, fmt.Sprintf("central tracks %d adapters, want %d", total, want))
	}
	if ms := c.Verify(); len(ms) != 0 {
		out = append(out, fmt.Sprintf("post-chaos verification found: %v", ms))
	}
	return out
}
