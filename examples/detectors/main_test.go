package main

import (
	"fmt"
	"testing"

	"repro/internal/exampletest"
)

// Every detector kind finds the killed node, and under 5 % loss the
// leader's verification lets no false alarm through.
func TestDetectorsOutcome(t *testing.T) {
	lines := exampletest.Run(t, main)
	rows := 0
	for _, l := range lines {
		var kind, latency string
		var rate float64
		var falseAlarms int
		if n, _ := fmt.Sscanf(l, "%s %s %f %d", &kind, &latency, &rate, &falseAlarms); n != 4 {
			continue
		}
		rows++
		if latency == "undetected" || falseAlarms != 0 {
			t.Errorf("%s: detect latency %s, %d false alarms", kind, latency, falseAlarms)
		}
	}
	if rows != 5 {
		t.Fatalf("%d detector rows, want 5", rows)
	}
	if last := lines[len(lines)-1]; last != "leader's verification probe keeps false alarms from becoming false kills." {
		t.Fatalf("closing line %q", last)
	}
}
