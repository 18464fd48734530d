package conformance

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/central"
	"repro/internal/configdb"
	"repro/internal/farm"
	"repro/internal/transport"
)

// groupsFromTruth rebuilds the discovered-topology groups a faithful
// Central would report for a given ground truth: one group per
// segment, led by any member.
func groupsFromTruth(gt *GroundTruth) map[string][]string {
	groups := map[string][]string{}
	for _, members := range gt.Segments {
		groups[members[0]] = members
	}
	return groups
}

func TestGroundTruthDiffClean(t *testing.T) {
	f := DefaultFarm()
	gt := f.GroundTruth(nil, nil, nil)
	if len(gt.Segments) != 3 {
		t.Fatalf("want 3 segments, got %v", gt.Segments)
	}
	topo := &central.Topology{Stable: true, Groups: groupsFromTruth(gt)}
	if diff := gt.Diff(topo); len(diff) != 0 {
		t.Fatalf("clean topology diffed: %v", diff)
	}
}

func TestGroundTruthDiffDeadNode(t *testing.T) {
	f := DefaultFarm()
	gt := f.GroundTruth(nil, map[string]bool{"web-2": true}, nil)
	for _, ip := range gt.Segments["vlan-101"] {
		if ip == adapterIP(f, "web-2", 1).String() {
			t.Fatalf("dead node's adapter %s still in ground truth", ip)
		}
	}
	topo := &central.Topology{Groups: groupsFromTruth(gt)}
	diff := gt.Diff(topo)
	if len(diff) != 1 || !strings.Contains(diff[0], "web-2") {
		t.Fatalf("want one missing-dead-node complaint, got %v", diff)
	}
	topo.DeadNodes = []string{"web-2"}
	if diff := gt.Diff(topo); len(diff) != 0 {
		t.Fatalf("dead node reported but still diffed: %v", diff)
	}
	topo.DeadNodes = []string{"web-2", "web-3"}
	diff = gt.Diff(topo)
	if len(diff) != 1 || !strings.Contains(diff[0], "web-3") {
		t.Fatalf("want one falsely-dead complaint, got %v", diff)
	}
}

func TestGroundTruthDiffMovedAdapter(t *testing.T) {
	f := DefaultFarm()
	moved := adapterIP(f, "web-1", 1) // starts on VLAN 101
	vlanOf := func(ip transport.IP) int {
		if ip == moved {
			return 102
		}
		return 0
	}
	gt := f.GroundTruth(vlanOf, nil, nil)
	for _, ip := range gt.Segments["vlan-101"] {
		if ip == moved.String() {
			t.Fatalf("moved adapter still listed on vlan-101")
		}
	}
	found := false
	for _, ip := range gt.Segments["vlan-102"] {
		if ip == moved.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("moved adapter missing from vlan-102: %v", gt.Segments)
	}

	// A Central still believing the pre-move reality must diff on both
	// affected segments.
	stale := f.GroundTruth(nil, nil, nil)
	diff := gt.Diff(&central.Topology{Groups: groupsFromTruth(stale)})
	if len(diff) != 4 { // 2 unmatched segments + 2 orphan groups
		t.Fatalf("want 4 divergences, got %v", diff)
	}
}

func TestGroundTruthDiffMismatches(t *testing.T) {
	gt := &GroundTruth{ExpectedMismatches: []string{"wrong-segment 10.0.2.1"}}
	verdicts := []string{"wrong-segment 10.0.2.1 vlan=200 (configured vlan=100)"}
	if diff := gt.DiffMismatches(verdicts); len(diff) != 0 {
		t.Fatalf("expected mismatch not matched: %v", diff)
	}
	if diff := gt.DiffMismatches(nil); len(diff) != 1 {
		t.Fatalf("want one missing-verdict complaint, got %v", diff)
	}
	gt.ExpectedMismatches = nil
	if diff := gt.DiffMismatches(verdicts); len(diff) != 1 {
		t.Fatalf("want one unexpected-verdict complaint, got %v", diff)
	}
}

func TestFarmSpecConfigDBLies(t *testing.T) {
	f := DefaultFarm()
	wrong := adapterIP(f, "web-2", 1)
	omit := adapterIP(f, "web-4", 1)
	ghost := adapterIP(f, "web-1", 0) + 8
	f.DBWrongVLAN = map[transport.IP]int{wrong: 102}
	f.DBOmit = map[transport.IP]bool{omit: true}
	f.DBGhosts = append(f.DBGhosts, configdb.AdapterSpec{
		IP: ghost, Node: "web-9", Index: 0, VLAN: farm.AdminVLAN,
		Switch: f.Switches[0].Name, Port: 9,
	})

	db, err := f.ConfigDB()
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := db.Adapter(wrong); !ok || a.VLAN != 102 {
		t.Fatalf("wrong-VLAN lie not planted: %+v ok=%v", a, ok)
	}
	if _, ok := db.Adapter(omit); ok {
		t.Fatalf("omitted adapter still present in db")
	}
	if _, ok := db.Adapter(ghost); !ok {
		t.Fatalf("ghost adapter missing from db")
	}
}

// The configdb-mismatch suite's planted lies alone derive the four
// verdicts verification raises against them, in this order.
func TestGroundTruthDerivesPlantedVerdicts(t *testing.T) {
	suites, err := FindSuites([]string{"configdb-mismatch"})
	if err != nil {
		t.Fatal(err)
	}
	f := DefaultFarm()
	suites[0].Prepare(f)
	want := []string{
		"wrong-segment " + adapterIP(f, "web-2", 1).String(),
		"missing-adapter " + (adapterIP(f, "web-1", 0) + 8).String(),
		"missing-adapter " + (adapterIP(f, "web-1", 1) + 8).String(),
		"unknown-adapter " + adapterIP(f, "web-4", 1).String(),
	}
	if got := f.GroundTruth(nil, nil, nil).ExpectedMismatches; !slices.Equal(got, want) {
		t.Fatalf("derived verdicts:\n got %q\nwant %q", got, want)
	}
}

// A move behind Central's back leaves the database stale, so the moved
// adapter is wrong-segment; the same move made by Central is not, and a
// dead node's adapters are missing.
func TestGroundTruthDerivesMoveVerdicts(t *testing.T) {
	f := DefaultFarm()
	moved := adapterIP(f, "web-1", 1)
	onto102 := func(ip transport.IP) int {
		if ip == moved {
			return 102
		}
		return 0
	}
	if got, want := f.GroundTruth(onto102, nil, nil).ExpectedMismatches, []string{"wrong-segment " + moved.String()}; !slices.Equal(got, want) {
		t.Fatalf("surprise move: got %q, want %q", got, want)
	}
	if got := f.GroundTruth(onto102, nil, map[transport.IP]int{moved: 102}).ExpectedMismatches; len(got) != 0 {
		t.Fatalf("planned move: got %q, want none", got)
	}
	got := f.GroundTruth(nil, map[string]bool{"web-3": true}, nil).ExpectedMismatches
	want := []string{"missing-adapter " + adapterIP(f, "web-3", 0).String(), "missing-adapter " + adapterIP(f, "web-3", 1).String()}
	if !slices.Equal(got, want) {
		t.Fatalf("dead node: got %q, want %q", got, want)
	}
}
