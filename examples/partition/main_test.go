package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/exampletest"
	"repro/internal/transport"
)

// The two halves boot as two groups and merge into one of all ten data
// adapters, led by the higher of the two leaders: every group's leader is
// its highest member, so that is the highest data adapter.
func TestPartitionOutcome(t *testing.T) {
	lines := exampletest.Run(t, main)
	var leaders []transport.IP
	var merged bool
	var final transport.IP
	for _, l := range lines {
		var ip string
		var n int
		switch {
		case l == "data-segment AMGs (1):":
			merged = true
		case strings.HasPrefix(l, "  leader "):
			if _, err := fmt.Sscanf(l, "  leader %s %d members", &ip, &n); err == nil && !merged {
				p, _ := transport.ParseIP(strings.TrimSuffix(ip, ":"))
				leaders = append(leaders, p)
			} else if merged && n != 10 {
				t.Fatalf("merged group %q, want 10 members", l)
			}
		case strings.HasPrefix(l, "final leader "):
			fmt.Sscanf(l, "final leader %s", &ip)
			final, _ = transport.ParseIP(ip)
		}
	}
	if len(leaders) != 2 || !merged || final == 0 || final != slices.Max(leaders) {
		t.Fatalf("halves led by %v, merged %v, final leader %v\n%s", leaders, merged, final, strings.Join(lines, "\n"))
	}
	if last := lines[len(lines)-1]; last != "AMG leader with the highest IP address, exactly as the paper specifies." {
		t.Fatalf("closing line %q", last)
	}
}
