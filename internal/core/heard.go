package core

import (
	"cmp"
	"math/bits"
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
// The beacon flood is O(segment²) per interval and all but the first
// beacon from a peer are repeats, so the structure is built around one
// question — "is this beacon a repeat?" — answered from as little memory as
// possible: with a thousand adapters beaconing, it is the size of this
// state, summed over adapters, that decides whether the flood runs from
// cache (DESIGN.md §9). Peers are grouped into pages of 64 consecutive
// addresses (a segment's adapters are numbered densely, so 500 peers need
// about ten pages); a page holds one bit per address for each flag, and one
// incarnation for the whole page, since segment-mates booted together
// nearly always share it. The few that do not are listed in odd. Node
// names are cold — read by the one adapter that ends the phase leading,
// written when a peer is new or changed — and live apart, in the order the
// peers were first heard, so that recording one is an append.
//
// Only an adapter that may still lead reads its set at phase end, and
// every adapter but a segment's highest stops being one the moment it hears
// a higher address. So the set is kept only until then: an outranked set
// is empty with one bit set, and everything heard afterwards is dropped
// unrecorded. Summed over a segment, that leaves names held by the few
// adapters that have not yet heard anyone above them.
type heardSet struct {
	pages     []heardPage // ascending base
	names     []heardName // one per peer heard
	odd       []heardOdd  // peers whose incarnation is not their page's
	outranked bool        // a higher address was heard: the rest is empty
}

type heardPage struct {
	base                  uint32 // address >> 6
	inc                   uint32 // incarnation of every peer here that is not in odd
	heard, grouped, admin uint64 // bit i: address base<<6 | i
}

type heardName struct {
	ip   transport.IP
	node string
}

type heardOdd struct {
	ip  transport.IP
	inc uint32
}

// page finds the page covering ip: its index in pages if there is one,
// else where it would be inserted.
func (h *heardSet) page(ip transport.IP) (int, bool) {
	base := uint32(ip) >> 6
	lo, hi := 0, len(h.pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.pages[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(h.pages) && h.pages[lo].base == base
}

// put records what a beacon from ip said. A beacon that repeats what is
// already recorded — the common case by orders of magnitude — returns nil
// and touches one page. Otherwise put returns where the peer's node name
// goes, for the caller to fill in: the name is the one part of a beacon
// that costs something to decode, and a repeat never needs it.
func (h *heardSet) put(ip transport.IP, inc uint32, grouped, admin bool) *string {
	inc &= heardIncMask
	bit := uint64(1) << (ip & 63)
	i, ok := h.page(ip)
	if !ok {
		h.pages = slices.Insert(h.pages, i, heardPage{base: uint32(ip) >> 6, inc: inc})
	}
	pg := &h.pages[i]
	known := pg.heard&bit != 0
	if known && (pg.grouped&bit != 0) == grouped && (pg.admin&bit != 0) == admin &&
		(inc == pg.inc && len(h.odd) == 0 || inc == h.incOf(pg, ip)) {
		return nil
	}
	pg.heard |= bit
	pg.grouped &^= bit
	if grouped {
		pg.grouped |= bit
	}
	pg.admin &^= bit
	if admin {
		pg.admin |= bit
	}
	h.odd = slices.DeleteFunc(h.odd, func(o heardOdd) bool { return o.ip == ip })
	if inc != pg.inc {
		h.odd = append(h.odd, heardOdd{ip, inc})
	}
	if !known {
		h.names = append(h.names, heardName{ip: ip})
		return &h.names[len(h.names)-1].node
	}
	// A known peer said something new: rare enough (a leader declaring
	// itself, a restart) to look its name up the slow way.
	n := slices.IndexFunc(h.names, func(n heardName) bool { return n.ip == ip })
	return &h.names[n].node
}

// incOf returns the incarnation recorded for a peer heard in pg.
func (h *heardSet) incOf(pg *heardPage, ip transport.IP) uint32 {
	for _, o := range h.odd {
		if o.ip == ip {
			return o.inc
		}
	}
	return pg.inc
}

// highest returns the highest address heard, 0 when none was.
func (h *heardSet) highest() transport.IP {
	if len(h.pages) == 0 {
		return 0
	}
	pg := &h.pages[len(h.pages)-1]
	return transport.IP(pg.base<<6 | uint32(63-bits.LeadingZeros64(pg.heard)))
}

// appendUngrouped appends every peer heard that had not declared a leader,
// highest address first — the order amg.New keeps, so a leader that heads
// the list with itself hands over a membership that needs no sorting.
func (h *heardSet) appendUngrouped(ms []wire.Member) []wire.Member {
	slices.SortFunc(h.names, func(a, b heardName) int { return cmp.Compare(b.ip, a.ip) })
	for _, n := range h.names {
		i, _ := h.page(n.ip)
		pg, bit := &h.pages[i], uint64(1)<<(n.ip&63)
		if pg.grouped&bit == 0 {
			ms = append(ms, wire.Member{IP: n.ip, Node: n.node, Admin: pg.admin&bit != 0})
		}
	}
	return ms
}
