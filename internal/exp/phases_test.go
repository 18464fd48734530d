package exp

import "testing"

// TestPhasesSmall runs E13 on a small farm and checks the phase order the
// protocol guarantees: discovery <= formation, and reporting <= stable.
func TestPhasesSmall(t *testing.T) {
	r := trialOf(t, phases, [2]int{2, 4}, 131)
	if r.discovery <= 0 || r.formation < r.discovery {
		t.Errorf("phase order: discovery %v, formation %v", r.discovery, r.formation)
	}
	if r.reporting <= 0 || r.stable < r.reporting {
		t.Errorf("phase order: reporting %v, stable %v", r.reporting, r.stable)
	}
	if r.txns == 0 || r.records == 0 {
		t.Errorf("no trace data: %d txns, %d records", r.txns, r.records)
	}
}
