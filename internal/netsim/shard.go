// Cross-shard delivery for sharded networks.
//
// A sharded Network partitions its adapters into lanes, one per shard of a
// sim.Shards kernel. Within a lookahead window every lane's events run
// only against lane-local state; a transmission whose receiver lives on
// another lane cannot be scheduled directly (the receiver's heap belongs
// to another goroutine), so the sender queues a pooled bundle — payload
// copy, receiver set, link profile, send instant — on a per-(src,dst) lane
// queue. At the window barrier, with every shard parked, the bundles are
// expanded into ordinary transmissions on the destination lane:
// per-receiver latency and loss come from the same stateless hashes the
// send path would have used, all arrivals bound for a lane are sorted in
// (time, source lane, bundle order, receiver order) order and numbered in
// that order from one block of the destination scheduler's sequence
// numbers, and each bundle's share of them is posted as its arrival list.
// The fixed sort order makes the destination's sequence numbering — and
// therefore the whole run — independent of worker scheduling, and the
// lookahead guarantees every arrival is still in the future. Bundles and
// expansion scratch recycle, so steady-state cross-shard traffic allocates
// nothing.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// NewSharded creates a network driven by a sharded kernel. home maps a
// node name to its shard: every adapter of the node lives on that shard's
// lane, and all of the node's simulated work must run there. With a
// one-shard kernel the network degenerates to the exact legacy
// single-threaded path (same RNG usage, no bundles, no barriers).
func NewSharded(sh *sim.Shards, resolver SegmentResolver, home func(node string) int) *Network {
	n := New(sh.Shard(0), resolver)
	n.sh = sh
	n.home = home
	if sh.N() == 1 {
		return n
	}
	n.sharded = true
	n.lanes = n.lanes[:0]
	for i := 0; i < sh.N(); i++ {
		n.lanes = append(n.lanes, &lane{
			net:   n,
			id:    i,
			sched: sh.Shard(i),
			out:   make([]bundleQueue, sh.N()),
			mcb:   make([]*bundle, sh.N()),
		})
	}
	sh.OnBarrier(n.flushCross)
	return n
}

// Sharded reports whether the network runs on a multi-shard kernel.
func (n *Network) Sharded() bool { return n.sharded }

// Lane returns the adapter's home shard index.
func (a *Adapter) Lane() int { return a.ln.id }

// bundle is one pooled cross-shard transmission in flight between a lane
// pair: the sender's payload (private reused copy), the receivers on the
// destination lane, and everything needed to resolve per-receiver latency
// and loss at the barrier.
type bundle struct {
	src     transport.Addr
	to      transport.Addr
	at      time.Duration // send instant on the source lane
	payload []byte
	recvs   []*Adapter
	profile LinkProfile
	filter  bool
	xtx     *transmission // destination-lane transmission, set during flush
}

// bundleQueue is the single-producer queue for one (src, dst) lane pair.
// The source lane appends during its window; the barrier drains and
// recycles. No locking: producer and consumer never run concurrently.
type bundleQueue struct {
	pending []*bundle
	free    []*bundle
}

// getBundle takes a bundle from the pair pool, fills its header and
// payload copy, and appends it to the pending queue (queue position is the
// bundle's merge sequence number).
func (ln *lane) getBundle(dst int, src, to transport.Addr, payload []byte, p LinkProfile, filter bool) *bundle {
	q := &ln.out[dst]
	var b *bundle
	if k := len(q.free); k > 0 {
		b = q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
	} else {
		b = &bundle{}
	}
	b.src, b.to, b.at = src, to, ln.sched.Now()
	b.payload = append(b.payload[:0], payload...)
	b.profile, b.filter = p, filter
	q.pending = append(q.pending, b)
	return b
}

// postCross queues a cross-shard unicast for the barrier.
func (ln *lane) postCross(target *Adapter, src, to transport.Addr, payload []byte, p LinkProfile, filter bool) {
	b := ln.getBundle(target.ln.id, src, to, payload, p, filter)
	b.recvs = append(b.recvs, target)
}

// postMulticast adds one remote receiver of the multicast currently being
// sent. Receivers on the same destination lane share one bundle (one
// payload copy per receiving shard); the per-destination scratch holds the
// open bundle until sealMulticast.
func (ln *lane) postMulticast(m *Adapter, src, group transport.Addr, payload []byte, p LinkProfile) {
	dst := m.ln.id
	b := ln.mcb[dst]
	if b == nil {
		b = ln.getBundle(dst, src, group, payload, p, true)
		ln.mcb[dst] = b
	}
	b.recvs = append(b.recvs, m)
}

// sealMulticast closes the per-destination scratch after a multicast.
func (ln *lane) sealMulticast() {
	for i, b := range ln.mcb {
		if b != nil {
			ln.mcb[i] = nil
		}
	}
}

// xdelivery is one expanded cross-shard arrival in the barrier's merge
// scratch, keyed for the deterministic injection order.
type xdelivery struct {
	at  time.Duration
	src int // source lane
	seq int // bundle position in its pair queue
	ri  int // receiver position within the bundle
	dst *Adapter
	b   *bundle
}

// compare orders expanded arrivals by (time, source lane, bundle order,
// receiver order) — the cross-shard delivery order.
func (a xdelivery) compare(b xdelivery) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src),
		cmp.Compare(a.seq, b.seq), cmp.Compare(a.ri, b.ri))
}

// flushCross is the network's barrier hook: expand every pending bundle
// into a destination-lane transmission whose arrival list is its share of
// the deterministic merge order, post those, then recycle the bundles.
// It runs on the control goroutine with all shards parked.
func (n *Network) flushCross() {
	for dsti := range n.lanes {
		dl := n.lanes[dsti]
		m := n.xdel[:0]
		for srci := range n.lanes {
			q := &n.lanes[srci].out[dsti]
			for bi, b := range q.pending {
				for ri, r := range b.recvs {
					if n.lost(b.profile, b.src.IP, r.ip, b.at) {
						continue
					}
					m = append(m, xdelivery{
						at:  b.at + n.latency(b.profile, b.src.IP, r.ip, b.at),
						src: srci, seq: bi, ri: ri, dst: r, b: b,
					})
				}
			}
		}
		if len(m) > 0 {
			slices.SortFunc(m, xdelivery.compare)
			if barrier := dl.sched.Now(); m[0].at < barrier {
				panic(fmt.Sprintf("netsim: cross-shard arrival at %v precedes barrier %v — link latency shorter than the lookahead", m[0].at, barrier))
			}
			// One transmission per bundle on the destination lane. The sorted
			// merge numbers the arrivals, so each bundle's share of it is
			// already in firing order.
			seq := dl.sched.ReserveSeq(len(m))
			for i := range m {
				e := &m[i]
				if e.b.xtx == nil {
					e.b.xtx = dl.newTx(e.b.src, e.b.to, e.b.payload, e.b.filter)
				}
				e.b.xtx.add(e.at, seq+uint64(i), e.dst)
				e.dst, e.b = nil, nil
			}
		}
		n.xdel = m[:0]
		for srci := range n.lanes {
			q := &n.lanes[srci].out[dsti]
			for bi, b := range q.pending {
				if b.xtx != nil {
					dl.sched.PostArrivals(&b.xtx.list)
					b.xtx = nil
				}
				for ri := range b.recvs {
					b.recvs[ri] = nil
				}
				b.recvs = b.recvs[:0]
				q.free = append(q.free, b)
				q.pending[bi] = nil
			}
			q.pending = q.pending[:0]
		}
	}
}
