package main

import (
	"fmt"
	"testing"

	"repro/internal/exampletest"
)

// The example closes by comparing the two ways of moving a server: the
// announced move must cost users less than the one behind GulfStream's
// back (the example itself exits through log.Fatal when it does not).
func TestWebfarmOutcome(t *testing.T) {
	lines := exampletest.Run(t, main)
	if len(lines) < 2 || lines[len(lines)-1] != "announce your moves." {
		t.Fatalf("closing lines %q", lines[max(len(lines)-2, 0):])
	}
	var expected, surprise float64
	if _, err := fmt.Sscanf(lines[len(lines)-2], "same reallocation, two ways: with expectation %f error-seconds, behind GulfStream's back %f.",
		&expected, &surprise); err != nil || expected >= surprise {
		t.Fatalf("outcome %q: expected %.2f, surprise %.2f (%v)", lines[len(lines)-2], expected, surprise, err)
	}
}
