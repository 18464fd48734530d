// Package amg holds the Adapter Membership Group data structures: the
// versioned, IP-ordered member list that a two-phase commit disseminates,
// and the ring/succession/subgroup math derived from it. The ordering is
// the protocol: Members[0] is the leader (highest IP), Members[1] the
// successor, and heartbeats flow around the list order (paper §2.1, §3).
package amg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Membership is one committed AMG membership view.
type Membership struct {
	Version uint64
	Members []wire.Member // strictly descending by IP
}

// New builds a sorted membership at the given version. Duplicate IPs are
// collapsed (last write wins). A members slice that is already strictly
// descending by IP — the wire order of every view-carrying message, since
// senders serialize their own sorted view — is adopted without copying;
// the caller must not modify it afterwards.
func New(version uint64, members []wire.Member) Membership {
	sorted := true
	for i := 1; i < len(members); i++ {
		if members[i-1].IP <= members[i].IP {
			sorted = false
			break
		}
	}
	if sorted {
		return Membership{Version: version, Members: members}
	}
	byIP := make(map[transport.IP]wire.Member, len(members))
	for _, m := range members {
		byIP[m.IP] = m
	}
	out := make([]wire.Member, 0, len(byIP))
	for _, m := range byIP { // order-free: one member per address, sorted below
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP > out[j].IP })
	return Membership{Version: version, Members: out}
}

// Size returns the member count.
func (g Membership) Size() int { return len(g.Members) }

// Leader returns the highest-IP member's address (0 for an empty group).
func (g Membership) Leader() transport.IP {
	if len(g.Members) == 0 {
		return 0
	}
	return g.Members[0].IP
}

// Successor returns the second-ranked member — the adapter that verifies a
// leader death and takes over (paper §2.1). Zero if the group has < 2.
func (g Membership) Successor() transport.IP {
	if len(g.Members) < 2 {
		return 0
	}
	return g.Members[1].IP
}

// IndexOf returns the member's rank, or -1.
func (g Membership) IndexOf(ip transport.IP) int {
	i := sort.Search(len(g.Members), func(i int) bool { return g.Members[i].IP <= ip })
	if i < len(g.Members) && g.Members[i].IP == ip {
		return i
	}
	return -1
}

// Contains reports membership.
func (g Membership) Contains(ip transport.IP) bool { return g.IndexOf(ip) >= 0 }

// RightOf returns ip's clockwise ring neighbor (the one ip heartbeats to).
// In a singleton group it returns ip itself; callers skip self-beats.
func (g Membership) RightOf(ip transport.IP) transport.IP {
	i := g.IndexOf(ip)
	if i < 0 || len(g.Members) == 0 {
		return 0
	}
	return g.Members[(i+1)%len(g.Members)].IP
}

// LeftOf returns ip's counterclockwise neighbor (the one ip monitors).
func (g Membership) LeftOf(ip transport.IP) transport.IP {
	i := g.IndexOf(ip)
	if i < 0 || len(g.Members) == 0 {
		return 0
	}
	return g.Members[(i-1+len(g.Members))%len(g.Members)].IP
}

// Neighbors returns both ring neighbors of ip.
func (g Membership) Neighbors(ip transport.IP) (left, right transport.IP) {
	return g.LeftOf(ip), g.RightOf(ip)
}

// IPs lists member addresses in rank order.
func (g Membership) IPs() []transport.IP {
	out := make([]transport.IP, len(g.Members))
	for i, m := range g.Members {
		out[i] = m.IP
	}
	return out
}

// WithJoined returns a new membership including extra members, version+1.
func (g Membership) WithJoined(extra ...wire.Member) Membership {
	all := make([]wire.Member, 0, len(g.Members)+len(extra))
	all = append(all, g.Members...)
	all = append(all, extra...)
	return New(g.Version+1, all)
}

// Without returns a new membership excluding the given IPs, version+1.
func (g Membership) Without(gone ...transport.IP) Membership {
	drop := make(map[transport.IP]bool, len(gone))
	for _, ip := range gone {
		drop[ip] = true
	}
	keep := make([]wire.Member, 0, len(g.Members))
	for _, m := range g.Members {
		if !drop[m.IP] {
			keep = append(keep, m)
		}
	}
	return New(g.Version+1, keep)
}

// Equal reports identical membership (IP sets and version).
func (g Membership) Equal(o Membership) bool {
	if g.Version != o.Version || len(g.Members) != len(o.Members) {
		return false
	}
	for i := range g.Members {
		if g.Members[i].IP != o.Members[i].IP {
			return false
		}
	}
	return true
}

// SameMembers reports identical IP sets regardless of version.
func (g Membership) SameMembers(o Membership) bool {
	if len(g.Members) != len(o.Members) {
		return false
	}
	for i := range g.Members {
		if g.Members[i].IP != o.Members[i].IP {
			return false
		}
	}
	return true
}

// Diff computes the delta from old to g: members present only in g
// (joined) and addresses present only in old (left). This is exactly what
// a leader reports to GulfStream Central.
func (g Membership) Diff(old Membership) (joined []wire.Member, left []transport.IP) {
	oldSet := make(map[transport.IP]bool, len(old.Members))
	for _, m := range old.Members {
		oldSet[m.IP] = true
	}
	newSet := make(map[transport.IP]bool, len(g.Members))
	for _, m := range g.Members {
		newSet[m.IP] = true
		if !oldSet[m.IP] {
			joined = append(joined, m)
		}
	}
	for _, m := range old.Members {
		if !newSet[m.IP] {
			left = append(left, m.IP)
		}
	}
	return joined, left
}

// Subgroups partitions the members into contiguous rank-order subgroups of
// at most size members each (paper §4.2's subgroup heartbeating). The
// last subgroup may be smaller. size < 2 yields a single subgroup.
func (g Membership) Subgroups(size int) [][]wire.Member {
	if size < 2 || len(g.Members) <= size {
		if len(g.Members) == 0 {
			return nil
		}
		return [][]wire.Member{g.Members}
	}
	var out [][]wire.Member
	for i := 0; i < len(g.Members); i += size {
		end := i + size
		if end > len(g.Members) {
			end = len(g.Members)
		}
		out = append(out, g.Members[i:end])
	}
	return out
}

// String renders "v<version>{ip ip ...}".
func (g Membership) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d{", g.Version)
	for i, m := range g.Members {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(m.IP.String())
	}
	b.WriteByte('}')
	return b.String()
}
