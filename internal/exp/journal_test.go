package exp

import "testing"

// TestJournalFailoverFewerResyncMessages is the headline acceptance check
// for the state journal: on a 20-node farm, a warm-standby successor must
// rebuild its view with strictly fewer report-plane messages than a cold
// successor pulling full re-reports from every leader.
func TestJournalFailoverFewerResyncMessages(t *testing.T) {
	seed := journalFailover.seeds[0]
	off, on := trialOf(t, journalFailover, false, seed), trialOf(t, journalFailover, true, seed)
	if off.rebuilt <= 0 || on.rebuilt <= 0 {
		t.Fatalf("implausible rebuild times: off=%v on=%v", off.rebuilt, on.rebuilt)
	}
	if on.reports >= off.reports {
		t.Fatalf("journal did not reduce resync traffic: on=%d off=%d report msgs",
			on.reports, off.reports)
	}
	// The journal plane is what replaces that traffic: silent with the
	// journal off, active (snapshot + appends to the new standby) with it on.
	if off.journal != 0 {
		t.Fatalf("journal-off farm sent %d journal-plane messages", off.journal)
	}
	if on.journal == 0 {
		t.Fatal("journal-on farm never used the journal plane after failover")
	}
	t.Logf("rebuild off=%v on=%v; report msgs off=%d on=%d; journal msgs on=%d",
		off.rebuilt, on.rebuilt, off.reports, on.reports, on.journal)
}

// TestJournalFailoverTable exercises the printable experiment end to end
// at a reduced size.
func TestJournalFailoverTable(t *testing.T) {
	tab := sweep(t, journalFailover, journalFailover.cells, journalFailover.seeds[0])
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (off + on)", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[1] != []string{"off", "on"}[i] || parseF(t, row[2]) <= 0 {
			t.Fatalf("incomplete row: %v", row)
		}
	}
}
