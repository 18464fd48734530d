package main

import (
	"strings"
	"testing"

	"repro/internal/exampletest"
)

// The example ends by seeing the killed node recover; it exits through
// log.Fatal when the failure or the recovery goes unobserved.
func TestQuickstartOutcome(t *testing.T) {
	lines := exampletest.Run(t, main)
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "node acme-be-01 recovered; farm steady again at t=") {
		t.Fatalf("closing line %q", last)
	}
}
