package check

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/trace"
	"repro/internal/transport"
)

// model is the one membership model the invariants are judged over. It
// is folded from trace records alone — the protocol's own account of
// itself — so it judges a scraped real-daemon trace exactly as it judges
// a simulated one: the leader of a view traces the view's joins and
// removes just before installing it, and every KViewCommit carries the
// installed view's members digest, which confirms each fold.
type model struct {
	adapters map[transport.IP]*adapter
	// views holds each incarnation (leader, version) as first committed.
	views map[gvKey]view
	// sets holds every member set a leader's install was folded to, by
	// digest: a member's install of that digest holds those members.
	sets map[trace.Digest][]transport.IP
	txns map[txnKey]*txn
}

// gvKey identifies one group incarnation: lineage leader + view version.
type gvKey struct {
	g transport.IP
	v uint64
}

// txnKey identifies one 2PC transaction: committing leader + round token.
type txnKey struct {
	g   transport.IP
	tok uint64
}

// view is one committed membership as the model knows it.
type view struct {
	digest trace.Digest
	// members are the view's addresses, highest first; meaningful only
	// when known. Shared between views, never written after the fold.
	members []transport.IP
	// known is false when the records do not determine the members: the
	// view's fold had nothing to start from, or its digest disagreed.
	known bool
}

func (v view) has(ip transport.IP) bool {
	_, ok := slices.BinarySearchFunc(v.members, ip, descending)
	return ok
}

// String renders the members as the single-incarnation message lists
// them (dotted quads in string order), or the digest when unknown.
func (v view) String() string {
	if !v.known {
		return fmt.Sprintf("digest %016x", uint64(v.digest))
	}
	ss := make([]string, len(v.members))
	for i, ip := range v.members {
		ss[i] = ip.String()
	}
	slices.Sort(ss)
	return strings.Join(ss, ",")
}

func descending(a, b transport.IP) int { return cmp.Compare(b, a) }

func digestOf(members []transport.IP) trace.Digest {
	d := trace.EmptyDigest
	for _, ip := range members {
		d = d.Add(ip)
	}
	return d
}

// adapter is one adapter's state in the model.
type adapter struct {
	// group and version identify the view it holds; held says it
	// committed one since its lineage last ended (started or orphaned).
	group   transport.IP
	version uint64
	view    view
	held    bool
	// joins and removes are the delta traced for the install this
	// adapter, as leader, is about to commit.
	joins, removes []transport.IP

	// As a leader: the removal evidence it holds per member, the members
	// its verification declared dead, whether a 2PC round retargeted
	// since its last commit, and its probes awaiting a verdict (nonce ->
	// probed peer).
	verdicts map[transport.IP]evidenceKind
	dead     map[transport.IP]bool
	retarget bool
	probes   map[uint64]transport.IP
}

// evidenceKind distinguishes why a leader may drop a member.
type evidenceKind uint8

const (
	evidenceDeath  evidenceKind = iota + 1 // verified dead (or takeover of a dead leader)
	evidenceDepart                         // verified alive under a foreign lineage
)

// txn is one 2PC round as the model knows it.
type txn struct {
	committed bool                  // its leader committed it
	votes     map[transport.IP]vote // each adapter's part in it
}

// vote is an adapter's part in one round, as bits.
type vote uint8

const (
	prepared  vote = 1 << iota // holds a live (non-rejected) prepare
	aborted                    // saw the round's Abort
	installed                  // installed the round's commit
)

func (m *model) adapter(ip transport.IP) *adapter {
	a := m.adapters[ip]
	if a == nil {
		a = &adapter{
			verdicts: map[transport.IP]evidenceKind{},
			dead:     map[transport.IP]bool{},
			probes:   map[uint64]transport.IP{},
		}
		m.adapters[ip] = a
	}
	return a
}

// reset ends the adapter's group lineage: a (re)start (KStarted) or an
// orphaning (KOrphaned, which every eviction also ends in). Its version
// counter may then restart, so the incarnations and rounds it led are
// forgotten, as are its votes and its death declarations. A restarted
// adapter holds no view; an orphan keeps its old one until the
// singleton it installs next, whose removes are traced against it.
func (m *model) reset(r *trace.Record) {
	a := m.adapter(r.Self)
	a.held, a.retarget = false, false
	clear(a.dead)
	if r.Kind == trace.KStarted {
		a.view = view{known: true}
	}
	maps.DeleteFunc(m.views, func(k gvKey, _ view) bool { return k.g == r.Self })
	for k, t := range m.txns {
		if k.g == r.Self {
			delete(m.txns, k)
		} else {
			delete(t.votes, r.Self)
		}
	}
}

// fold returns the view the KViewCommit r installs. A leader's is its
// previous view with the traced delta applied (or, when the previous one
// is unknown, the joins and itself), confirmed by the digest; a member's
// is the member set a leader's install folded to under the same digest.
// Anything else is unknown.
func (m *model) fold(a *adapter, r *trace.Record) view {
	m.resolve(a)
	if r.Group != r.Self {
		members, ok := m.sets[r.Digest]
		return view{digest: r.Digest, members: members, known: ok}
	}
	members := a.view.members
	switch {
	case !a.view.known:
		members = append([]transport.IP{r.Self}, a.joins...)
		members = slices.Compact(sortDesc(members))
	case len(a.joins) > 0 || len(a.removes) > 0:
		members = make([]transport.IP, 0, len(members)+len(a.joins))
		for _, ip := range a.view.members {
			if !slices.Contains(a.removes, ip) {
				members = append(members, ip)
			}
		}
		members = sortDesc(append(members, a.joins...))
	}
	v := view{digest: r.Digest, members: members}
	v.known = len(members) == int(r.Count) && digestOf(members) == r.Digest
	return v
}

// resolve fills in the members of the view a holds once a leader's
// install has folded its digest: in a trace merged from several daemons
// a member's commit may come before its leader's.
func (m *model) resolve(a *adapter) {
	if ms, ok := m.sets[a.view.digest]; ok && !a.view.known {
		a.view.members, a.view.known = ms, true
	}
}

func sortDesc(ips []transport.IP) []transport.IP {
	slices.SortFunc(ips, descending)
	return ips
}

// install makes v the view the adapter holds, and the incarnation's
// record when it is the first commit of it.
func (m *model) install(a *adapter, r *trace.Record, v view) {
	a.group, a.version, a.view, a.held = r.Group, r.Version, v, true
	a.joins, a.removes = a.joins[:0], a.removes[:0]
	k := gvKey{r.Group, r.Version}
	if _, ok := m.views[k]; !ok {
		m.views[k] = v
	}
	if _, ok := m.sets[v.digest]; v.known && !ok {
		m.sets[v.digest] = v.members
	}
}
