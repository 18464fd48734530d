package central

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/journal"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestJournalOnOffSameView feeds one report corpus to a Central with a
// journal and to one without. Both change their view only by folding
// records, so they must end with the same view and publish the same
// events. The corpus has fulls, deltas, a takeover, a Fresh lineage
// break, a merge that leaves a stale group listing the member, no-op
// fulls, a delta without a baseline and a hostile full (unsorted, one IP
// twice), followed by limbo expiry and a planned move.
func TestJournalOnOffSameView(t *testing.T) {
	const nodes = 8
	m := func(class int, ns ...int) []wire.Member {
		var out []wire.Member
		for _, n := range ns {
			out = append(out, genMember(class, n))
		}
		return out
	}
	lead := func(class, n int) transport.IP { return genIP(class, n) }
	sorted := m(0, 7, 6, 5)
	corpus := []*wire.Report{
		{Leader: lead(0, 7), Version: 1, Full: true, Members: sorted},
		{Leader: lead(0, 4), Version: 1, Full: true, Members: m(0, 4, 3, 2)},
		{Leader: lead(1, 7), Version: 1, Full: true, Members: m(1, 7, 6, 5, 4, 3, 2, 1, 0)},
		{Leader: lead(0, 7), Version: 2, Members: m(0, 1), Left: []transport.IP{lead(0, 6)}},
		{Leader: lead(0, 7), Version: 2, Full: true, Members: m(0, 7, 5, 1)}, // no-op
		{Leader: lead(0, 5), Version: 3, Full: true, PrevLeader: lead(0, 7), PrevVersion: 2, Members: m(0, 5, 1)},
		{Leader: lead(0, 4), Version: 2, Full: true, Members: m(0, 4, 3, 2, 1)}, // merge: 1 leaves 5's group
		{Leader: lead(0, 4), Version: 2, Full: true, Members: m(0, 4, 3, 2, 1)}, // no-op
		{Leader: lead(0, 4), Version: 1, Full: true, Fresh: true, Members: m(0, 4)},
		{Leader: lead(1, 7), Version: 2, Full: true, Members: m(1, 3, 7, 5, 3, 1, 0)}, // hostile
		{Leader: lead(1, 7), Version: 3, Left: []transport.IP{lead(1, 3), lead(1, 1)}},
		{Leader: lead(1, 6), Version: 1, Members: m(1, 6)}, // no baseline
	}
	run := func(j *journal.Journal) *fixture {
		f := newJournaledFixture(t, genDB(nodes), j)
		for i, r := range corpus {
			r := *r
			f.report(&r)
			if i == 0 {
				if got := f.c.st.Groups[r.Leader].Members; unsafe.SliceData(got) != unsafe.SliceData(sorted) {
					t.Fatal("a strictly descending full report's list was copied")
				}
			}
			f.sched.RunFor(time.Second)
		}
		f.expectMove(lead(1, 2), f.sched.Now()+f.c.cfg.MoveWindow)
		f.report(&wire.Report{Leader: lead(0, 5), Version: 4, Members: m(0, 2)}) // not the planned one
		f.report(&wire.Report{Leader: lead(0, 5), Version: 5, Members: m(1, 2)})
		f.sched.RunFor(2 * f.c.cfg.MoveWindow) // limbo and the move window expire
		return f
	}
	with, without := run(journal.NewMem()), run(nil)
	if d := with.c.JournalDrift(); d != "" {
		t.Fatalf("journal drift: %s", d)
	}
	if with.c.Journal().Seq() == 0 {
		t.Fatal("the journaled Central committed nothing")
	}
	if a, b := fmt.Sprint(with.c.Groups()), fmt.Sprint(without.c.Groups()); a != b {
		t.Fatalf("groups with a journal %s, without %s", a, b)
	}
	if a, b := with.c.DeadNodes(), without.c.DeadNodes(); !slices.Equal(a, b) || len(a) == 0 {
		t.Fatalf("dead nodes with a journal %v, without %v (want some)", a, b)
	}
	for class := 0; class < 2; class++ {
		for n := 0; n < nodes; n++ {
			a, aok := with.c.AdapterAlive(genIP(class, n))
			b, bok := without.c.AdapterAlive(genIP(class, n))
			if a != b || aok != bok {
				t.Fatalf("%v: alive %v/%v known %v/%v with/without a journal", genIP(class, n), a, b, aok, bok)
			}
		}
	}
	a, b := with.bus.Log(), without.bus.Log()
	if len(a) != len(b) {
		t.Fatalf("%d events with a journal, %d without", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %+v with a journal, %+v without", i, a[i], b[i])
		}
	}
	if hostile := without.c.st.Groups[lead(1, 7)].Members; !slices.Equal(hostile, m(1, 7, 5, 0)) {
		t.Fatalf("hostile full stored as %v", hostile)
	}
}
