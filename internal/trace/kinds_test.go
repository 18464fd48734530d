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
