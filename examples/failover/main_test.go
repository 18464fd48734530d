package main

import (
	"testing"

	"repro/internal/exampletest"
)

// Each of the four failure classes is checked as it happens (log.Fatal
// on a miss); the closing line says all four passed.
func TestFailoverOutcome(t *testing.T) {
	lines := exampletest.Run(t, main)
	if last := lines[len(lines)-1]; last != "all four failure classes handled." {
		t.Fatalf("closing line %q", last)
	}
}
