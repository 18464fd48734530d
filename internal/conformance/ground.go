package conformance

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/central"
	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// GroundTruth is the B.O.D.Y.-style declarative statement of what the
// farm actually looks like right now: which adapters share each
// broadcast segment, which nodes are dead, and which configdb verdicts
// verification is expected to raise. The harness diffs Central's
// discovered topology against it; an empty diff is the pass condition.
type GroundTruth struct {
	// Segments maps segment name -> the sorted adapter addresses that
	// are really plugged into it (dead nodes excluded).
	Segments map[string][]string `json:"segments"`
	// DeadNodes are nodes whose processes are down and must be reported
	// dead by Central.
	DeadNodes []string `json:"dead_nodes"`
	// ExpectedMismatches are substrings that must each match at least
	// one configdb verification verdict — and every verdict must match
	// one of them. Empty means verification must come back clean.
	ExpectedMismatches []string `json:"expected_mismatches,omitempty"`
}

// GroundTruth assembles the current reality from the fabric's live
// per-adapter VLAN view (vlanOf returns 0 for "still on the spec
// VLAN"), the set of dead nodes, and the VLANs planned moves put
// adapters on. The expected verdicts follow from comparing that reality
// with what the database believes: the spec's planted lies, updated by
// the planned moves Central made. A live adapter off the VLAN the
// database gives it is wrong-segment, an adapter the database omits is
// unknown-adapter, and a dead node's or a ghost's adapter is
// missing-adapter.
func (f *FarmSpec) GroundTruth(vlanOf func(transport.IP) int, dead map[string]bool,
	planned map[transport.IP]int) *GroundTruth {

	gt := &GroundTruth{Segments: map[string][]string{}, DeadNodes: []string{}}
	var wrong, missing, unknown []string
	for _, n := range f.Nodes {
		down := dead[n.Name]
		if down {
			gt.DeadNodes = append(gt.DeadNodes, n.Name)
		}
		for _, a := range n.Adapters {
			ip := a.IP.String()
			if down {
				if !f.DBOmit[a.IP] {
					missing = append(missing, "missing-adapter "+ip)
				}
				continue
			}
			vlan := a.VLAN
			if vlanOf != nil {
				if v := vlanOf(a.IP); v != 0 {
					vlan = v
				}
			}
			seg := switchsim.SegmentName(vlan)
			gt.Segments[seg] = append(gt.Segments[seg], ip)
			switch {
			case f.DBOmit[a.IP]:
				unknown = append(unknown, "unknown-adapter "+ip)
			case vlan != cmp.Or(planned[a.IP], f.DBWrongVLAN[a.IP], a.VLAN):
				wrong = append(wrong, "wrong-segment "+ip)
			}
		}
	}
	for _, g := range f.DBGhosts {
		missing = append(missing, "missing-adapter "+g.IP.String())
	}
	for seg := range gt.Segments { // order-free: each segment sorts its own list
		sortIPStrings(gt.Segments[seg])
	}
	sort.Strings(gt.DeadNodes)
	gt.ExpectedMismatches = slices.Concat(wrong, missing, unknown)
	return gt
}

// Diff compares Central's discovered topology against the ground
// truth. It returns one complaint per divergence; nil means the
// discovered topology is exactly the declared reality. Group leader
// identity is not part of the contract (any member may lead); the
// member sets are.
func (gt *GroundTruth) Diff(topo *central.Topology) []string {
	var out []string
	if topo == nil {
		return []string{"no topology document (no active Central reachable)"}
	}

	// Index discovered groups by their member-set fingerprint (Central
	// lists members ascending, as the ground truth does).
	type discovered struct {
		leader string
		key    string
		used   bool
	}
	groups := make([]*discovered, 0, len(topo.Groups))
	for _, leader := range ordered.Keys(topo.Groups) {
		groups = append(groups, &discovered{leader: leader, key: strings.Join(topo.Groups[leader], " ")})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })

	for _, seg := range ordered.Keys(gt.Segments) {
		want := strings.Join(gt.Segments[seg], " ")
		found := false
		for _, g := range groups {
			if !g.used && g.key == want {
				g.used, found = true, true
				break
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("segment %s: no discovered group matches {%s}", seg, want))
		}
	}
	for _, g := range groups {
		if !g.used {
			out = append(out, fmt.Sprintf("discovered group led by %s has no matching segment: {%s}", g.leader, g.key))
		}
	}

	// Dead nodes must match exactly.
	reported := map[string]bool{}
	for _, n := range topo.DeadNodes {
		reported[n] = true
	}
	for _, n := range gt.DeadNodes {
		if !reported[n] {
			out = append(out, fmt.Sprintf("node %s is down but Central does not report it dead", n))
		}
		delete(reported, n)
	}
	for _, n := range ordered.Keys(reported) {
		out = append(out, fmt.Sprintf("Central reports %s dead but it is running", n))
	}
	return out
}

// DiffMismatches checks the verification verdicts against the
// expectations: every expected substring must match at least one
// verdict, and every verdict must be covered by some expectation.
func (gt *GroundTruth) DiffMismatches(verdicts []string) []string {
	var out []string
	covered := make([]bool, len(verdicts))
	for _, want := range gt.ExpectedMismatches {
		hit := false
		for i, v := range verdicts {
			if strings.Contains(v, want) {
				covered[i], hit = true, true
			}
		}
		if !hit {
			out = append(out, fmt.Sprintf("expected a %q verification verdict, got none", want))
		}
	}
	for i, v := range verdicts {
		if !covered[i] {
			out = append(out, fmt.Sprintf("unexpected verification verdict: %s", v))
		}
	}
	return out
}
