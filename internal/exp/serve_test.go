package exp

import (
	"reflect"
	"testing"
	"time"
)

// One cell, run twice, must be bit-identical: the whole serving plane —
// arrivals, routing, notification pipe — lives inside the deterministic
// kernel.
func TestServeCellDeterministic(t *testing.T) {
	c := churnCell{2, "failure", 500 * time.Millisecond}
	a, b := trialOf(t, serveRow, c, 171), trialOf(t, serveRow, c, 171)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cells diverged:\n  %+v\n  %+v", a, b)
	}
}

// The E17 acceptance properties on a minimal sweep: every cell recovers
// with a clean audit, an unannounced failure always costs error-seconds,
// the cost strictly increases with notification delay, and a
// pre-announced move through a direct pipe is free.
func TestServeSweepSanity(t *testing.T) {
	cells := churnCells([]int{2}, []string{"failure", "move"}, 0, time.Second)
	ms := make([][]servePoint, len(cells))
	for i, c := range cells {
		ms[i] = []servePoint{trialOf(t, serveRow, c, 171)}
	}
	if bad := serveSanity(cells, ms); len(bad) != 0 {
		t.Fatalf("sanity violations: %v", bad)
	}
	for i, c := range cells {
		pt := ms[i][0]
		if c.schedule == "move" && c.delay == 0 && pt.errorSeconds != 0 {
			t.Fatalf("pre-announced move through a direct pipe cost %.3f error-seconds", pt.errorSeconds)
		}
		if pt.requests == 0 || pt.peakSessions == 0 {
			t.Fatalf("cell %+v served no traffic: %+v", c, pt)
		}
	}
}
