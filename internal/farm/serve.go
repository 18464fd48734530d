package farm

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/switchsim"
)

// This file makes Farm the serving plane's world: it satisfies
// serve.Directory (the topology the balancer seeds from) and
// serve.Oracle (the ground truth requests resolve against), and adds the
// out-of-band failure the paper's verification chapter worries about —
// a domain move performed behind Central's back.

// Domains lists the farm's security domains in spec order
// (serve.Directory).
func (f *Farm) Domains() []string {
	out := make([]string, 0, len(f.layout.Domains))
	for _, d := range f.layout.Domains {
		out = append(out, d.Name)
	}
	return out
}

// FrontEnds lists the domain's front-end nodes in build order
// (serve.Directory).
func (f *Farm) FrontEnds(domain string) []string {
	var out []string
	for _, name := range f.order {
		info := f.Nodes[name]
		if info.Role == "frontend" && info.Domain == domain {
			out = append(out, name)
		}
	}
	return out
}

// DomainOf resolves a front-end node's current domain from the switch
// fabric: whichever domain's front VLAN its front adapter is wired into
// right now (serve.Directory). Reading the fabric — not the config DB —
// means surprise moves resolve correctly too; what makes them expensive
// is that nothing tells the balancer to re-ask until the move is finally
// correlated. Not-ok when the node is unknown, not a front-end, or its
// segment is dark (switch or port down).
func (f *Farm) DomainOf(node string) (string, bool) {
	info, ok := f.Nodes[node]
	if !ok || info.Role != "frontend" || len(info.Adapters) < 2 {
		return "", false
	}
	seg, ok := f.Fabric.SegmentOf(info.Adapters[1])
	if !ok {
		return "", false
	}
	for _, d := range f.layout.Domains {
		if seg == switchsim.SegmentName(d.VLANs[0]) {
			return d.Name, true
		}
	}
	return "", false
}

// Serves is the ground truth a routed request resolves against
// (serve.Oracle): the node's daemon is running, its front adapter is
// healthy, and the fabric has that adapter wired into the domain's front
// VLAN — switch up, port up, VLAN matching. Anything less and a real
// client would have gotten an error.
func (f *Farm) Serves(node, domain string) bool {
	info, ok := f.Nodes[node]
	if !ok || info.Role != "frontend" || len(info.Adapters) < 2 {
		return false
	}
	if !f.Daemons[node].Running() {
		return false
	}
	front := info.Adapters[1]
	if f.adapters[front].Mode() != netsim.Healthy {
		return false
	}
	d := f.layout.domain(domain)
	if d == nil {
		return false
	}
	seg, ok := f.Fabric.SegmentOf(front)
	return ok && seg == switchsim.SegmentName(d.VLANs[0])
}

// SurpriseMoveNode rewires the node's ports to the target domain's VLANs
// directly on the switches, bypassing Central and the configuration
// database — the "reconfiguration behind GulfStream's back" of paper
// §3.1. Central sees unexplained adapter deaths, later correlates the
// rejoin as an UNEXPECTED move, and verification flags the DB mismatch;
// until all that lands, the serving plane keeps routing to a node that
// is gone.
func (f *Farm) SurpriseMoveNode(node, toDomain string) error {
	moves, err := f.layout.Moves(node, toDomain)
	if err != nil {
		return err
	}
	f.traceFault(node, "surprise-move "+toDomain)
	for idx, ip := range f.Nodes[node].Adapters {
		vlan, move := moves[idx]
		if !move {
			continue
		}
		sw, port, ok := f.Fabric.Locate(ip)
		if !ok {
			return fmt.Errorf("farm: adapter %v is not wired", ip)
		}
		if err := sw.SetPortVLAN(port, vlan); err != nil {
			return err
		}
	}
	// Deliberately no f.DB or info.Domain update: the config database
	// still claims the old domain, which is what verification must catch.
	return nil
}

// AttachServe assembles a serving plane over this farm: balancer fed
// from the farm's event bus through pipe (direct tap when nil), workload
// resolving against the farm's ground truth, stats into the farm's
// metrics registry and flight recorder.
func (f *Farm) AttachServe(cfg serve.Config, pipe serve.Pipe) *serve.Plane {
	return serve.Attach(cfg, f.Clock(), f.Bus, f, f, f.Metrics, f.Trace, pipe)
}
