package amg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/transport"
	"repro/internal/wire"
)

func mk(last ...byte) []wire.Member {
	out := make([]wire.Member, len(last))
	for i, d := range last {
		out[i] = wire.Member{IP: transport.MakeIP(10, 0, 0, d), Node: "n", Index: 0}
	}
	return out
}

func ip(d byte) transport.IP { return transport.MakeIP(10, 0, 0, d) }

func TestNewSortsDescendingAndDedups(t *testing.T) {
	g := New(1, mk(3, 9, 1, 9, 5))
	if g.Size() != 4 {
		t.Fatalf("size = %d, want 4 (dedup)", g.Size())
	}
	want := []transport.IP{ip(9), ip(5), ip(3), ip(1)}
	for i, w := range want {
		if g.Members[i].IP != w {
			t.Fatalf("rank %d = %v, want %v", i, g.Members[i].IP, w)
		}
	}
}

func TestLeaderAndSuccessor(t *testing.T) {
	g := New(1, mk(3, 9, 5))
	if g.Leader() != ip(9) {
		t.Errorf("leader = %v", g.Leader())
	}
	if g.Successor() != ip(5) {
		t.Errorf("successor = %v", g.Successor())
	}
	single := New(1, mk(7))
	if single.Leader() != ip(7) || single.Successor() != 0 {
		t.Error("singleton leader/successor wrong")
	}
	empty := New(1, nil)
	if empty.Leader() != 0 {
		t.Error("empty leader should be 0")
	}
}

func TestRingNeighbors(t *testing.T) {
	g := New(1, mk(1, 2, 3, 4)) // order: 4 3 2 1
	// RightOf 4 is 3, LeftOf 4 is 1 (wrap).
	if g.RightOf(ip(4)) != ip(3) || g.LeftOf(ip(4)) != ip(1) {
		t.Errorf("neighbors of leader: %v %v", g.LeftOf(ip(4)), g.RightOf(ip(4)))
	}
	if g.RightOf(ip(1)) != ip(4) {
		t.Errorf("RightOf tail = %v, want leader", g.RightOf(ip(1)))
	}
	l, r := g.Neighbors(ip(3))
	if l != ip(4) || r != ip(2) {
		t.Errorf("Neighbors(3) = %v %v", l, r)
	}
	if g.RightOf(ip(99)) != 0 {
		t.Error("RightOf nonmember should be 0")
	}
	// Singleton: self-neighbor.
	s := New(1, mk(7))
	if s.RightOf(ip(7)) != ip(7) {
		t.Error("singleton right neighbor should be self")
	}
}

func TestIndexContains(t *testing.T) {
	g := New(1, mk(1, 2, 3))
	if g.IndexOf(ip(3)) != 0 || g.IndexOf(ip(2)) != 1 || g.IndexOf(ip(1)) != 2 {
		t.Error("IndexOf wrong")
	}
	if g.IndexOf(ip(9)) != -1 || g.Contains(ip(9)) {
		t.Error("nonmember lookups wrong")
	}
	if m, ok := g.Member(ip(2)); !ok || m.IP != ip(2) {
		t.Error("Member lookup wrong")
	}
}

func TestWithJoinedWithout(t *testing.T) {
	g := New(5, mk(1, 3))
	g2 := g.WithJoined(mk(2)...)
	if g2.Version != 6 || g2.Size() != 3 || !g2.Contains(ip(2)) {
		t.Fatalf("WithJoined = %v", g2)
	}
	if g.Size() != 2 {
		t.Fatal("WithJoined mutated receiver")
	}
	g3 := g2.Without(ip(3), ip(1))
	if g3.Version != 7 || g3.Size() != 1 || !g3.Contains(ip(2)) {
		t.Fatalf("Without = %v", g3)
	}
}

func TestDiff(t *testing.T) {
	old := New(1, mk(1, 2, 3))
	cur := New(2, mk(2, 3, 4, 5))
	joined, left := cur.Diff(old)
	if len(joined) != 2 || len(left) != 1 {
		t.Fatalf("diff: joined=%v left=%v", joined, left)
	}
	jset := map[transport.IP]bool{}
	for _, m := range joined {
		jset[m.IP] = true
	}
	if !jset[ip(4)] || !jset[ip(5)] || left[0] != ip(1) {
		t.Fatalf("diff contents wrong: %v %v", joined, left)
	}
	// Diff against self is empty.
	j2, l2 := cur.Diff(cur)
	if len(j2) != 0 || len(l2) != 0 {
		t.Fatal("self-diff not empty")
	}
}

func TestEqualAndSameMembers(t *testing.T) {
	a := New(1, mk(1, 2))
	b := New(1, mk(2, 1))
	c := New(2, mk(1, 2))
	d := New(1, mk(1, 3))
	if !a.Equal(b) {
		t.Error("same sets same version must be Equal")
	}
	if a.Equal(c) {
		t.Error("version must matter for Equal")
	}
	if !a.SameMembers(c) {
		t.Error("SameMembers must ignore version")
	}
	if a.SameMembers(d) {
		t.Error("different sets reported same")
	}
}

func TestSubgroups(t *testing.T) {
	g := New(1, mk(1, 2, 3, 4, 5, 6, 7))
	subs := g.Subgroups(3)
	if len(subs) != 3 || len(subs[0]) != 3 || len(subs[1]) != 3 || len(subs[2]) != 1 {
		t.Fatalf("subgroup sizes: %d groups", len(subs))
	}
	// Contiguity in rank order.
	if subs[0][0].IP != ip(7) || subs[2][0].IP != ip(1) {
		t.Fatal("subgroups not rank-contiguous")
	}
	if n := len(g.Subgroups(0)); n != 1 {
		t.Fatalf("size<2 must give one subgroup, got %d", n)
	}
	if New(1, nil).Subgroups(3) != nil {
		t.Fatal("empty group must give nil subgroups")
	}
}

// Property: walking RightOf from the leader visits every member exactly
// once and returns to the leader — the ring is a single cycle.
func TestPropertyRingIsSingleCycle(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		members := make([]wire.Member, n)
		seen := map[transport.IP]bool{}
		for i := range members {
			var a transport.IP
			for {
				a = transport.IP(rng.Uint32())
				if a != 0 && !seen[a] {
					break
				}
			}
			seen[a] = true
			members[i] = wire.Member{IP: a}
		}
		g := New(1, members)
		visited := map[transport.IP]bool{}
		cur := g.Leader()
		for i := 0; i < n; i++ {
			if visited[cur] {
				return false
			}
			visited[cur] = true
			cur = g.RightOf(cur)
		}
		return cur == g.Leader() && len(visited) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LeftOf inverts RightOf.
func TestPropertyLeftInvertsRight(t *testing.T) {
	g := New(1, mk(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	for _, m := range g.Members {
		if g.LeftOf(g.RightOf(m.IP)) != m.IP {
			t.Fatalf("LeftOf(RightOf(%v)) != %v", m.IP, m.IP)
		}
	}
}

// Property: Diff(WithJoined) reports exactly the joined members.
func TestPropertyDiffMatchesEdits(t *testing.T) {
	base := New(1, mk(10, 20, 30))
	added := base.WithJoined(mk(15, 25)...)
	joined, left := added.Diff(base)
	if len(joined) != 2 || len(left) != 0 {
		t.Fatalf("joined=%v left=%v", joined, left)
	}
	removed := base.Without(ip(20))
	joined, left = removed.Diff(base)
	if len(joined) != 0 || len(left) != 1 || left[0] != ip(20) {
		t.Fatalf("joined=%v left=%v", joined, left)
	}
}

func TestString(t *testing.T) {
	g := New(3, mk(1, 2))
	if got := g.String(); got != "v3{10.0.0.2 10.0.0.1}" {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkIndexOf256(b *testing.B) {
	members := make([]wire.Member, 256)
	for i := range members {
		members[i] = wire.Member{IP: transport.MakeIP(10, 0, byte(i/200), byte(i%200+1))}
	}
	g := New(1, members)
	target := members[137].IP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.IndexOf(target) < 0 {
			b.Fatal("missing")
		}
	}
}

// Member returns the record for ip.
func (g Membership) Member(ip transport.IP) (wire.Member, bool) {
	if i := g.IndexOf(ip); i >= 0 {
		return g.Members[i], true
	}
	return wire.Member{}, false
}
