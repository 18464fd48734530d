package central

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/configdb"
	"repro/internal/journal"
	"repro/internal/transport"
	"repro/internal/wire"
)

// memberJoined finds "the other group that still lists this adapter"
// through Adapters[ip].Group instead of scanning every group. That is
// sound only while:
//
//	an adapter is in at most one group's member list, and if it is in
//	Groups[l].Members then Adapters[ip].Group == l.
//
// checkGroupIndex verifies it the slow way, by scanning every group, and
// that each member list is strictly descending by IP.
func checkGroupIndex(t *testing.T, c *Central, when string) {
	t.Helper()
	owner := map[transport.IP]transport.IP{}
	for l, g := range c.st.Groups {
		if g.Leader != l {
			t.Fatalf("%s: group keyed %v says its leader is %v", when, l, g.Leader)
		}
		for i, m := range g.Members {
			if i > 0 && m.IP >= g.Members[i-1].IP {
				t.Fatalf("%s: group %v lists %v after %v", when, l, m.IP, g.Members[i-1].IP)
			}
			if other, dup := owner[m.IP]; dup {
				t.Fatalf("%s: adapter %v listed by groups %v and %v", when, m.IP, other, l)
			}
			owner[m.IP] = l
			info, known := c.st.Adapters[m.IP]
			if !known {
				t.Fatalf("%s: adapter %v listed by group %v has no record", when, m.IP, l)
			}
			if info.Group != l {
				t.Fatalf("%s: adapter %v is listed by group %v but its record names %v", when, m.IP, l, info.Group)
			}
		}
	}
	if len(c.reporters) != len(c.st.Groups) {
		t.Fatalf("%s: %d reporters for %d groups", when, len(c.reporters), len(c.st.Groups))
	}
}

// reportGen draws random reports over a small universe of two-adapter
// nodes, tracking per-group versions so it can aim fulls, deltas,
// takeovers and stale reports at the groups Central actually holds.
type reportGen struct {
	rng     *rand.Rand
	nodes   int
	seq     map[transport.IP]uint64
	version map[transport.IP]uint64
}

func (g *reportGen) adapter() (int, int) { return g.rng.Intn(2), g.rng.Intn(g.nodes) }

func genIP(a, n int) transport.IP { return transport.MakeIP(10, byte(1+a), 0, byte(n+1)) }

func genMember(a, n int) wire.Member {
	return wire.Member{IP: genIP(a, n), Node: fmt.Sprintf("n%02d", n), Index: uint8(a), Admin: a == 0}
}

// subset draws 1..max members of adapter class a, always including node
// must (the leader).
func (g *reportGen) subset(a, must, max int) []wire.Member {
	picked := map[int]bool{must: true}
	for want := 1 + g.rng.Intn(max); len(picked) < want; {
		picked[g.rng.Intn(g.nodes)] = true
	}
	out := make([]wire.Member, 0, len(picked))
	for n := range picked {
		out = append(out, genMember(a, n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP > out[j].IP })
	return out
}

// existing picks the leader of a group Central holds (ok=false if none).
func (g *reportGen) existing(c *Central) (transport.IP, bool) {
	leaders := make([]transport.IP, 0, len(c.st.Groups))
	for l := range c.st.Groups {
		leaders = append(leaders, l)
	}
	if len(leaders) == 0 {
		return 0, false
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	return leaders[g.rng.Intn(len(leaders))], true
}

func classOf(ip transport.IP) int { return int(byte(ip>>16)) - 1 }
func nodeOf(ip transport.IP) int  { return int(byte(ip)) - 1 }

func (g *reportGen) next(c *Central) (transport.Addr, *wire.Report) {
	a, n := g.adapter()
	leader := genIP(a, n)
	r := &wire.Report{Leader: leader}
	bump := func(l transport.IP) uint64 { g.version[l] += uint64(g.rng.Intn(3)); return g.version[l] }
	switch op := g.rng.Intn(12); {
	case op < 4: // full: forms, replaces, or — overlapping another group — merges
		r.Full, r.Members, r.Version = true, g.subset(a, n, 6), bump(leader)
	case op < 7: // delta on a held group: a join, a leave, or both
		if l, ok := g.existing(c); ok {
			leader, a = l, classOf(l)
			r.Leader = l
		}
		r.Version = bump(leader)
		if g.rng.Intn(3) > 0 {
			r.Members = []wire.Member{genMember(a, g.rng.Intn(g.nodes))}
		}
		if g.rng.Intn(3) > 0 {
			r.Left = []transport.IP{genIP(a, g.rng.Intn(g.nodes))}
		}
	case op < 9: // takeover: a member supersedes a held group's leader
		if old, ok := g.existing(c); ok && old != leader {
			a = classOf(old)
			leader = genIP(a, n)
			r.Leader = leader
			r.PrevLeader, r.PrevVersion = old, g.version[old]
			if g.rng.Intn(4) == 0 {
				r.PrevVersion-- // the old address already keys a newer lineage
			}
		}
		r.Full, r.Members, r.Version = true, g.subset(a, nodeOf(leader), 5), bump(leader)+1
	case op < 10: // lineage break
		r.Full, r.Fresh, r.Members, r.Version = true, true, g.subset(a, n, 4), 1
		g.version[leader] = 1
	case op < 11: // stale full: an old version of a held group
		if l, ok := g.existing(c); ok {
			leader, a = l, classOf(l)
			r.Leader = l
		}
		r.Full, r.Members = true, g.subset(a, nodeOf(leader), 6)
		if v := g.version[leader]; v > 0 {
			r.Version = v - 1
		}
	default: // a full with no members at all
		r.Full, r.Version = true, bump(leader)
	}
	src := transport.Addr{IP: genIP(0, nodeOf(r.Leader)), Port: transport.PortReport}
	g.seq[src.IP]++
	r.Seq = g.seq[src.IP]
	return src, r
}

func genDB(nodes int) *configdb.DB {
	db := configdb.New()
	for n := 0; n < nodes; n++ {
		for a := 0; a < 2; a++ {
			_ = db.AddAdapter(configdb.AdapterSpec{IP: genIP(a, n), Node: fmt.Sprintf("n%02d", n),
				Index: a, VLAN: 100 + a, Switch: fmt.Sprintf("sw%d", n%3), Port: n})
		}
	}
	return db
}

// TestOneGroupPerAdapterUnderRandomReports drives random report
// sequences — fulls, deltas, takeovers with PrevLeader, Fresh lineage
// breaks, merges, stale and empty fulls, limbo sweeps — and every so
// often moves the whole view into a new Central through a journal
// snapshot, checking the index invariant and the journal's replay after
// every report. The digest it logs is independent of map order; it was
// compared, seed by seed, with the group-scanning implementation this
// replaced.
func TestOneGroupPerAdapterUnderRandomReports(t *testing.T) {
	const nodes = 10
	for seed := int64(1); seed <= 30; seed++ {
		f := newFixture(t, genDB(nodes))
		f.c.Deactivate()
		f.c.SetJournal(journal.NewMem())
		f.c.Activate(f.ep)
		gen := &reportGen{rng: rand.New(rand.NewSource(seed)), nodes: nodes,
			seq: map[transport.IP]uint64{}, version: map[transport.IP]uint64{}}
		digest := fnv.New64a()
		for step := 0; step < 400; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			if gen.rng.Intn(40) == 0 {
				// Failover: a standby that ingested a snapshot activates
				// and carries on from the restored view.
				standby := journal.NewMem()
				standby.Ingest(f.c.Journal().SnapshotRecord(f.sched.Now()))
				before := f.c.Groups()
				f.c.Deactivate()
				f.c = New(f.c.cfg, clock{f.sched}, f.bus, f.c.db)
				f.c.SetJournal(standby)
				f.c.Activate(f.ep)
				if restored := len(before) > 0; restored && fmt.Sprint(f.c.Groups()) != fmt.Sprint(before) {
					t.Fatalf("%s: restored view %v, want %v", when, f.c.Groups(), before)
				}
				gen.seq = map[transport.IP]uint64{} // the daemons restart their sequences too
				checkGroupIndex(t, f.c, when+" (restored)")
			}
			src, r := gen.next(f.c)
			f.c.HandleReport(src, r)
			checkGroupIndex(t, f.c, when)
			if d := f.c.JournalDrift(); d != "" {
				t.Fatalf("%s: journal drift: %s", when, d)
			}
			// Let time pass: resync rate limits, the move window and
			// the limbo sweep all hang off the clock.
			f.sched.RunFor(time.Duration(gen.rng.Intn(4000)) * time.Millisecond)
			checkGroupIndex(t, f.c, when+" (after sweep)")
		}
		var lines []string
		for _, e := range f.bus.Log() {
			lines = append(lines, fmt.Sprintf("%v|%v|%s|%v|%s", e.Kind, e.Adapter, e.Node, e.Group, e.Detail))
		}
		for l, ms := range f.c.Groups() {
			lines = append(lines, fmt.Sprintf("group %v %v", l, ms))
		}
		lines = append(lines, fmt.Sprint("dead ", f.c.DeadNodes()), fmt.Sprint("seq ", f.c.Journal().Seq()))
		sort.Strings(lines)
		for _, l := range lines {
			digest.Write([]byte(l))
		}
		t.Logf("seed %d: %d events, %d groups, journal seq %d, digest %016x",
			seed, len(f.bus.Log()), len(f.c.Groups()), f.c.Journal().Seq(), digest.Sum64())
	}
}
