package central

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Central's housekeeping walks maps — limbo deadlines, expected moves, a
// superseded group's members — and what it does per entry is published on
// the bus (where a balancer may answer with packets) and written to the
// journal. Several entries coming due at once must therefore be handled in
// an order a re-run repeats. Each scenario below makes five or more come
// due together, runs four times in this one process (Go re-randomizes map
// order on every range, so a map-ordered walk would all but surely differ
// between two of them), and demands the same event sequence every time —
// and that the sequence is the address order the code promises.

func nodeName(d byte) string { return fmt.Sprintf("n%d", d) }

func members(ds ...byte) []wire.Member {
	var ms []wire.Member
	for _, d := range ds {
		ms = append(ms, member(1, d, nodeName(d), true))
	}
	return ms
}

// subjects renders the published events of one kind as their adapters.
func subjects(f *fixture, k event.Kind) []transport.IP {
	var out []transport.IP
	for _, e := range f.bus.Filter(k) {
		out = append(out, e.Adapter)
	}
	return out
}

func TestSimultaneousExpiriesAreHandledInAddressOrder(t *testing.T) {
	scenarios := []struct {
		name string
		kind event.Kind
		want []byte // last octets, in the order the events must name them
		run  func(f *fixture)
	}{
		{
			// A lineage break displaces six members into limbo under one
			// deadline; none resurfaces.
			name: "sweepLimbo", kind: event.AdapterFailed, want: []byte{2, 3, 4, 5, 6, 7},
			run: func(f *fixture) {
				f.full(ip(1, 9), 1, members(9, 7, 6, 5, 4, 3, 2)...)
				f.report(&wire.Report{Leader: ip(1, 9), Version: 1001, Full: true, Fresh: true, Members: members(9)})
				f.sched.RunFor(f.c.cfg.MoveWindow + 10*time.Second)
			},
		},
		{
			// Five planned moves registered together, none completed.
			name: "sweepExpectedMoves", kind: event.VerifyMismatch, want: []byte{11, 12, 13, 14, 15},
			run: func(f *fixture) {
				f.full(ip(1, 20), 1, members(20, 15, 14, 13, 12, 11)...)
				for d := byte(11); d <= 15; d++ {
					f.c.expectedMoves[ip(1, d)] = f.sched.Now() + f.c.cfg.MoveWindow
				}
				f.sched.RunFor(f.c.cfg.MoveWindow + 10*time.Second)
			},
		},
		{
			// A successor's takeover report keeps three of nine members: the
			// old leader and five others departed with it.
			name: "applyFull takeover", kind: event.AdapterFailed, want: []byte{31, 32, 33, 34, 35, 39},
			run: func(f *fixture) {
				f.full(ip(1, 39), 1, members(39, 38, 37, 36, 35, 34, 33, 32, 31)...)
				f.report(&wire.Report{Leader: ip(1, 38), Version: 2, Full: true,
					PrevLeader: ip(1, 39), PrevVersion: 1, Members: members(38, 37, 36)})
			},
		},
		{
			// The same leader's next full report drops five members at once.
			name: "applyFull departures", kind: event.AdapterFailed, want: []byte{41, 42, 43, 44, 45},
			run: func(f *fixture) {
				f.full(ip(1, 49), 1, members(49, 48, 45, 44, 43, 42, 41)...)
				f.full(ip(1, 49), 2, members(49, 48)...)
			},
		},
	}
	for _, sc := range scenarios {
		var first []event.Event
		for rerun := 0; rerun < 4; rerun++ {
			f := newFixture(t, nil)
			sc.run(f)
			var want []transport.IP
			for _, d := range sc.want {
				want = append(want, ip(1, d))
			}
			if got := subjects(f, sc.kind); !slices.Equal(got, want) {
				t.Fatalf("%s, run %d: %v events name %v, want %v", sc.name, rerun, sc.kind, got, want)
			}
			if rerun == 0 {
				first = slices.Clone(f.bus.Log())
			} else if !slices.Equal(f.bus.Log(), first) {
				t.Fatalf("%s: run %d published a different event sequence than run 0:\n%v\nvs\n%v", sc.name, rerun, f.bus.Log(), first)
			}
		}
	}
}
