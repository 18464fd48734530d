package trace

import (
	"strings"
	"testing"
)

// Every declared kind must have a non-empty, unique name — the table is
// positional, so appending a kind without a kindNames entry would render
// as "Kind(n)" in every dump and silently break name-based filters.
func TestKindNamesExhaustiveAndUnique(t *testing.T) {
	if int(kindMax) != len(kindNames) {
		t.Fatalf("kindNames has %d entries, need %d (a kind was added without a name, or a name without a kind)",
			len(kindNames), int(kindMax))
	}
	// The metrics bridge and /trace filters find this one by name.
	if k, ok := kindByName["rx-dropped"]; !ok || k != KRxDropped {
		t.Errorf(`"rx-dropped" parses to kind %d (%v), want KRxDropped`, k, ok)
	}
	seen := make(map[string]Kind)
	for k := Kind(1); k < kindMax; k++ {
		name := kindNames[k]
		if name == "" {
			t.Errorf("kind %d has an empty kindNames entry", k)
			continue
		}
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d String() fell through to the numeric form", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

// AutoDump must trigger for kinds >= 64: the trigger set used to be a
// single uint64, so any kind past the first word could never fire.
func TestAutoDumpHighKind(t *testing.T) {
	const high = Kind(200) // well past one uint64's worth of kinds
	r := New(16)
	var got []Record
	r.AutoDump(func(trigger Record, recent []Record) {
		got = append(got, trigger)
	}, high)

	r.Record(Record{Kind: KBeaconSent, Node: "a"}) // not in the trigger set
	if len(got) != 0 {
		t.Fatalf("dump fired for an unarmed kind: %v", got)
	}
	r.Record(Record{Kind: high, Node: "a"})
	if len(got) != 1 || got[0].Kind != high {
		t.Fatalf("dump did not fire for kind %d: got %v", high, got)
	}
}

// The dump trigger must also fire for the newest declared kinds (the
// ones the uint64 mask was about to outgrow) and keep working for low
// kinds after the widening.
func TestAutoDumpMixedKinds(t *testing.T) {
	r := New(16)
	fired := 0
	r.AutoDump(func(Record, []Record) { fired++ }, KOrphaned, KServeClean, Kind(130))
	r.Record(Record{Kind: KOrphaned})
	r.Record(Record{Kind: KServeClean})
	r.Record(Record{Kind: Kind(130)})
	r.Record(Record{Kind: KBeaconSent})
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}
