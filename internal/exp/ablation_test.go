package exp

import (
	"testing"
	"time"
)

// The Tb=0 ablation must reproduce the paper's §2.1 argument: skipping
// the beacon phase yields many singleton formations and strictly more
// membership-plane traffic than a modest beacon phase.
func TestBeaconPhaseAblation(t *testing.T) {
	const adapters = 24
	tab := sweep(t, tb0, []time.Duration{0, 5})
	zero, five := tab.Rows[0], tab.Rows[1]
	zeroMsgs, fiveMsgs := parseF(t, zero[1]), parseF(t, five[1])
	if zeroMsgs <= fiveMsgs {
		t.Fatalf("Tb=0 membership traffic (%v) not higher than Tb=5s (%v)", zeroMsgs, fiveMsgs)
	}
	zeroForms, fiveForms := parseF(t, zero[3]), parseF(t, five[3])
	if zeroForms < adapters/2 {
		t.Fatalf("Tb=0 formed only %v groups; expected mass singletons", zeroForms)
	}
	if fiveForms > 3 {
		t.Fatalf("Tb=5s formed %v groups; expected ~1", fiveForms)
	}
}
