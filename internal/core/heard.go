package core

import (
	"cmp"
	"slices"

	"repro/internal/transport"
	"repro/internal/wire"
)

// heardIncMask keeps the low 30 bits of a peer's incarnation — the width
// the heard set has always compared.
const heardIncMask = 1<<30 - 1

// heardSet is the set of peers an adapter has heard during its beacon
// phase, with what each beacon said: whether the peer already follows a
// leader, whether it is its node's administrative adapter, its incarnation
// and its node name.
//
// Only an adapter that may still lead keeps a set, and it stops being one
// the moment it hears a higher address: the set is then dropped for one
// bit, and everything heard afterwards goes unrecorded. So every peer held
// is below the adapter's own address, and a segment's sets hold at most
// n·H_n peers in all at the peak of the first round and one set after it
// (DESIGN.md §9). That is little enough for a plain list, kept highest
// address first.
type heardSet struct {
	peers     []heardPeer // descending address, all below the holder's
	outranked bool        // a higher address was heard: peers is empty
}

type heardPeer struct {
	ip             transport.IP
	inc            uint32 // low 30 bits
	grouped, admin bool
	node           string
}

// put records what a beacon from ip said. A beacon that repeats what is
// already recorded — the common case by orders of magnitude — returns nil.
// Otherwise put returns where the peer's node name goes, for the caller to
// fill in: the name is the one part of a beacon that costs something to
// decode, and a repeat never needs it.
func (h *heardSet) put(ip transport.IP, inc uint32, grouped, admin bool) *string {
	inc &= heardIncMask
	i, known := slices.BinarySearchFunc(h.peers, ip, func(p heardPeer, t transport.IP) int { return cmp.Compare(t, p.ip) })
	if !known {
		h.peers = slices.Insert(h.peers, i, heardPeer{ip: ip})
	}
	p := &h.peers[i]
	if known && p.inc == inc && p.grouped == grouped && p.admin == admin {
		return nil
	}
	p.inc, p.grouped, p.admin = inc, grouped, admin
	return &p.node
}

// appendUngrouped appends every peer heard that had not declared a leader,
// highest address first — the order amg.New keeps, so a leader that heads
// the list with itself hands over a membership that needs no sorting.
func (h *heardSet) appendUngrouped(ms []wire.Member) []wire.Member {
	for _, p := range h.peers {
		if !p.grouped {
			ms = append(ms, wire.Member{IP: p.ip, Node: p.node, Admin: p.admin})
		}
	}
	return ms
}
