package amg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/transport"
	"repro/internal/wire"
)

// randomMembership builds a membership with n distinct random addresses.
func randomMembership(rng *rand.Rand, n int) Membership {
	seen := map[transport.IP]bool{}
	var ms []wire.Member
	for len(ms) < n {
		ip := transport.IP(rng.Uint32())
		if ip == 0 || seen[ip] {
			continue
		}
		seen[ip] = true
		ms = append(ms, wire.Member{IP: ip})
	}
	return New(uint64(rng.Intn(100)), ms)
}

// Property: Subgroups partitions the membership exactly — every member in
// exactly one subgroup, order preserved, sizes bounded.
func TestPropertySubgroupsPartition(t *testing.T) {
	f := func(seed int64, nRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		size := int(sizeRaw%12) + 2
		g := randomMembership(rng, n)
		subs := g.Subgroups(size)
		seen := map[transport.IP]int{}
		idx := 0
		for _, sub := range subs {
			if len(sub) == 0 || len(sub) > size {
				return false
			}
			for _, m := range sub {
				seen[m.IP]++
				// Order preserved: members appear in rank order globally.
				if g.Members[idx].IP != m.IP {
					return false
				}
				idx++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: WithJoined then Without of the same members is identity on
// the IP set (though the version advances).
func TestPropertyJoinRemoveIdentity(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%32) + 1
		k := int(kRaw%8) + 1
		g := randomMembership(rng, n)
		extra := randomMembership(rng, k)
		// Ensure disjoint.
		var add []wire.Member
		for _, m := range extra.Members {
			if !g.Contains(m.IP) {
				add = append(add, m)
			}
		}
		g2 := g.WithJoined(add...)
		var ips []transport.IP
		for _, m := range add {
			ips = append(ips, m.IP)
		}
		g3 := g2.Without(ips...)
		return g3.SameMembers(g) && g3.Version > g.Version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Diff is consistent — applying the reported join/leave delta
// to the old membership reproduces the new IP set.
func TestPropertyDiffAppliesCleanly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := randomMembership(rng, rng.Intn(20)+1)
		cur := old
		// Random edits.
		for i := 0; i < rng.Intn(6); i++ {
			if rng.Intn(2) == 0 && cur.Size() > 1 {
				cur = cur.Without(cur.Members[rng.Intn(cur.Size())].IP)
			} else {
				cur = cur.WithJoined(wire.Member{IP: transport.IP(rng.Uint32() | 1)})
			}
		}
		joined, left := cur.Diff(old)
		rebuilt := old.WithJoined(joined...).Without(left...)
		return rebuilt.SameMembers(cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the leader is always the maximum, the successor the second
// maximum.
func TestPropertyLeaderOrder(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		g := randomMembership(rng, n)
		var max1, max2 transport.IP
		for _, m := range g.Members {
			if m.IP > max1 {
				max2 = max1
				max1 = m.IP
			} else if m.IP > max2 {
				max2 = m.IP
			}
		}
		return g.Leader() == max1 && g.Successor() == max2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
