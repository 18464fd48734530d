// Package netsim simulates an IP-over-switched-Ethernet network for
// GulfStream: adapters attached to broadcast segments, UDP-like unicast and
// multicast with configurable loss and latency, and adapter failure modes
// (fail-stop, receive-dead, send-dead — the paper's §3 discusses exactly
// the receive-dead case and why it requires a loopback self-test).
//
// Which adapters share a segment is not decided here: a SegmentResolver —
// in practice the switch fabric in internal/switchsim — maps each adapter
// to a segment. A resolver that can attribute changes to individual
// adapters (NotifyingResolver) lets the network maintain its
// segment-membership cache incrementally; otherwise the cache is rebuilt
// whenever the resolver's version moves. Each adapter holds a pointer to
// its current segment bucket, so the steady-state send path resolves the
// sender and its peers without touching a map.
//
// The delivery path is allocation-free in the steady state: a transmission
// is one pooled record — the payload, copied exactly once and shared by
// all receivers, and a sim.ArrivalList with one entry per receiver — that
// the scheduler holds as a single event however wide the fan-out.
// Receivers must not retain a delivered payload beyond the handler call
// (see transport.Handler and DESIGN.md §9).
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// SegmentResolver maps adapters to broadcast segments. Implementations
// must bump Version whenever any mapping changes so the network can
// invalidate its segment-membership cache.
type SegmentResolver interface {
	// SegmentOf returns the segment the adapter is attached to, and false
	// if the adapter currently has no connectivity (port down, switch
	// dead, unknown adapter).
	SegmentOf(ip transport.IP) (string, bool)
	// Version increments on every topology change.
	Version() uint64
}

// NotifyingResolver is an optional extension of SegmentResolver for
// resolvers that can say which adapter a topology change affected.
// Notify registers two callbacks: perIP, invoked with each adapter whose
// connectivity may have changed, and bulk, invoked when a change cannot
// be attributed to specific adapters. A Network attached to a
// NotifyingResolver updates its segment-membership cache incrementally
// instead of rebuilding it from scratch on every change.
type NotifyingResolver interface {
	SegmentResolver
	Notify(perIP func(transport.IP), bulk func())
}

// LinkProfile describes delivery quality on a segment. Loss is the
// independent per-receiver drop probability in [0,1]; latency of a packet
// is Latency, plus a uniform draw from [0, Jitter), plus a deterministic
// per-(src,dst) spread in [0, Spread).
//
// Spread exists for sharded runs: it desynchronizes simultaneous arrivals
// the way real path-length differences do, but it is a pure hash of the
// address pair — no RNG draw — so it is identical under any shard count
// and absent (zero) in every pre-existing profile.
//
// RecvFilter selects receiver-side multicast filtering: the segment
// delivers a multicast to every attached adapter and the subscription
// check happens at arrival (IGMP-snooping semantics), instead of the
// default sender-side membership scan. Cross-shard segments require it —
// a sender may not read another shard's subscription state mid-window —
// and it must be a property of the segment, not of the shard count, so
// single-shard runs of the same farm stay bit-identical.
type LinkProfile struct {
	Loss       float64
	Latency    time.Duration
	Jitter     time.Duration
	Spread     time.Duration
	RecvFilter bool
}

// FailureMode enumerates the ways an adapter can be broken.
type FailureMode int

const (
	// Healthy: adapter sends and receives normally.
	Healthy FailureMode = iota
	// FailStop: adapter neither sends nor receives (powered off, cable cut).
	FailStop
	// FailRecv: adapter transmits but hears nothing — the paper's "fails
	// in such a way that it ceases to receive messages" case, which a
	// naive ring detector misblames on the left neighbor.
	FailRecv
	// FailSend: adapter receives but its transmissions vanish.
	FailSend
)

func (m FailureMode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case FailStop:
		return "fail-stop"
	case FailRecv:
		return "fail-recv"
	case FailSend:
		return "fail-send"
	default:
		return fmt.Sprintf("FailureMode(%d)", int(m))
	}
}

// Trace describes one transmission attempt, for metrics and debugging.
type Trace struct {
	Time      time.Duration
	Src       transport.IP
	Dst       transport.Addr
	Segment   string
	Bytes     int
	Multicast bool
	Receivers int // copies actually delivered (post-loss)
	Dropped   int // copies lost to the loss model
	// Payload aliases the sender's wire bytes and is valid only for the
	// duration of the tap callback (senders reuse their buffers); a tap
	// that retains packet contents must copy.
	Payload []byte
}

// segment is one broadcast domain's cache bucket: its members in
// ascending-IP order plus the resolved link profile, so a sender reaches
// both through a single pointer.
type segment struct {
	name string
	// members are the attached adapters as the receivers a send reads; a
	// flooding multicast (RecvFilter) goes to all of them.
	members []receiver // ascending IP
	// spans records that the members sit on more than one lane, where a
	// multicast must flood.
	spans    bool
	profile  LinkProfile
	override bool // profile explicitly set; otherwise the network default applies
	// groups caches Multicast's subscribed receivers, one list per group,
	// for a segment that filters at the sender. A change of members or of
	// a member's subscriptions empties it.
	groups []groupTable
}

// receiver is one entry of a send's receiver list: the address and home
// lane a send reads, beside the adapter it hands to the arrival but never
// dereferences — so the send loop touches only the list.
type receiver struct {
	ip   transport.IP
	lane int32
	a    *Adapter
}

func receiverOf(a *Adapter) receiver { return receiver{ip: a.ip, lane: int32(a.ln.id), a: a} }

// groupTable is the members of a segment subscribed to group, in
// ascending IP order.
type groupTable struct {
	group transport.Addr
	rx    []receiver
}

// subscribed returns the members subscribed to group, building the list
// on first use after a change. It reads every member's subscriptions, so
// only a segment on one lane may be asked (Multicast checks spans first).
func (s *segment) subscribed(group transport.Addr) []receiver {
	for i := range s.groups {
		if t := &s.groups[i]; t.group == group {
			return t.rx
		}
	}
	s.groups = slices.Grow(s.groups, 1)[:len(s.groups)+1]
	t := &s.groups[len(s.groups)-1]
	t.group, t.rx = group, t.rx[:0]
	for _, r := range s.members {
		if r.a.inGroup(group) {
			t.rx = append(t.rx, r)
		}
	}
	return t.rx
}

// forgetGroups empties the group tables; the next Multicast to each group
// rebuilds its own, reusing the lists. It writes only when there is a
// table: a segment that spans lanes never builds one, so its members'
// lanes may change subscriptions at once.
func (s *segment) forgetGroups() {
	if len(s.groups) > 0 {
		s.groups = s.groups[:0]
	}
}

// spansLanes reports whether ms sit on more than one lane.
func spansLanes(ms []receiver) bool {
	for _, r := range ms {
		if r.lane != ms[0].lane {
			return true
		}
	}
	return false
}

// find locates the member with the given address.
func (s *segment) find(ip transport.IP) (receiver, bool) {
	ms := s.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= ip })
	if i < len(ms) && ms[i].ip == ip {
		return ms[i], true
	}
	return receiver{}, false
}

// Network is the simulated fabric. It is driven entirely by the
// scheduler's event loop and is not safe for concurrent use. A sharded
// network (NewSharded) is driven by the Shards kernel and partitions all
// mutable delivery state into per-shard lanes, so no shard's window
// touches another's — see shard.go.
type Network struct {
	sched    *sim.Scheduler
	resolver SegmentResolver

	// Sharding. lanes always has at least one entry; a legacy network is
	// exactly the one-lane special case (lane 0 on the caller's scheduler).
	lanes   []*lane
	sh      *sim.Shards
	home    func(node string) int
	sharded bool
	xdel    []xdelivery // barrier merge scratch, reused

	adapters map[transport.IP]*Adapter
	order    []transport.IP // sorted, for deterministic iteration

	defaultProfile LinkProfile
	segProfiles    map[string]LinkProfile

	// Segment-membership cache. With a NotifyingResolver it is maintained
	// incrementally (incremental=true, per-adapter callbacks); otherwise
	// a resolver version change forces a full rebuild. dirty marks a
	// pending rebuild in either mode.
	incremental  bool
	dirty        bool
	cacheVersion uint64
	segments     map[string]*segment

	tap func(Trace)
}

// New creates a network on the given scheduler with the resolver deciding
// segment membership.
func New(sched *sim.Scheduler, resolver SegmentResolver) *Network {
	n := &Network{
		sched:          sched,
		resolver:       resolver,
		adapters:       make(map[transport.IP]*Adapter),
		defaultProfile: LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond},
		segProfiles:    make(map[string]LinkProfile),
		segments:       make(map[string]*segment),
		dirty:          true,
	}
	n.lanes = []*lane{{net: n, id: 0, sched: sched}}
	if nr, ok := resolver.(NotifyingResolver); ok {
		n.incremental = true
		nr.Notify(n.adapterMoved, n.invalidate)
	}
	return n
}

// SetDefaultProfile sets the link profile used by segments without an
// override.
func (n *Network) SetDefaultProfile(p LinkProfile) { n.defaultProfile = p }

// SetSegmentProfile overrides the link profile for one segment.
func (n *Network) SetSegmentProfile(name string, p LinkProfile) {
	n.segProfiles[name] = p
	if seg := n.segments[name]; seg != nil {
		seg.profile = p
		seg.override = true
	}
}

// Tap installs fn to observe every transmission attempt. A nil fn removes
// the tap.
func (n *Network) Tap(fn func(Trace)) { n.tap = fn }

func (n *Network) effectiveProfile(seg *segment) LinkProfile {
	if seg.override {
		return seg.profile
	}
	return n.defaultProfile
}

// AddAdapter creates and attaches an adapter with the given address,
// owned by the named node. It panics on duplicate addresses: farm
// construction is programmer-controlled and a duplicate is always a bug.
func (n *Network) AddAdapter(ip transport.IP, node string) *Adapter {
	if _, dup := n.adapters[ip]; dup {
		panic(fmt.Sprintf("netsim: duplicate adapter %v", ip))
	}
	a := &Adapter{net: n, ip: ip}
	a.ln = n.lanes[0]
	if n.sharded {
		a.ln = n.lanes[n.home(node)]
	}
	n.adapters[ip] = a
	i := sort.Search(len(n.order), func(i int) bool { return n.order[i] >= ip })
	n.order = append(n.order, 0)
	copy(n.order[i+1:], n.order[i:])
	n.order[i] = ip
	if n.incremental {
		if !n.dirty {
			if name, ok := n.resolver.SegmentOf(ip); ok {
				n.insertMember(n.getSegment(name), a)
			}
		}
	} else {
		n.invalidate()
	}
	return a
}

// Adapters returns all adapters in ascending IP order.
func (n *Network) Adapters() []*Adapter {
	out := make([]*Adapter, 0, len(n.order))
	for _, ip := range n.order {
		out = append(out, n.adapters[ip])
	}
	return out
}

// invalidate schedules a full cache rebuild (the bulk-change path).
func (n *Network) invalidate() { n.dirty = true }

// ensure refreshes the segment cache as the mode requires; every read of
// segment state goes through it first. In a sharded network the cache may
// only be rebuilt while the kernel is quiesced — every shard's window must
// see the same segment buckets, so a topology change landing mid-window is
// a hard error (sharded runs are for static-topology workloads; call
// Ensure from control code after any change).
func (n *Network) ensure() {
	if n.dirty || (!n.incremental && n.resolver.Version() != n.cacheVersion) {
		if n.sharded && n.sh.Running() {
			panic("netsim: topology changed during a sharded window")
		}
		n.rebuild()
	}
}

// Ensure rebuilds the segment cache if stale. Sharded callers must invoke
// it from control code (between runs) after construction or any topology
// change, so no rebuild happens inside a window.
func (n *Network) Ensure() { n.ensure() }

// getSegment returns the named bucket, creating it (with any registered
// profile override) on first sight.
func (n *Network) getSegment(name string) *segment {
	seg := n.segments[name]
	if seg == nil {
		seg = &segment{name: name}
		if p, ok := n.segProfiles[name]; ok {
			seg.profile = p
			seg.override = true
		}
		n.segments[name] = seg
	}
	return seg
}

// adapterMoved is the per-adapter path of the incremental cache: called by
// a NotifyingResolver whenever one adapter's connectivity may have
// changed, it re-resolves just that adapter and splices it between
// segment buckets.
func (n *Network) adapterMoved(ip transport.IP) {
	if n.dirty {
		return // full rebuild already pending; it will pick this up
	}
	a := n.adapters[ip]
	if a == nil {
		return // resolver knows the IP before AddAdapter; that re-resolves
	}
	name, ok := n.resolver.SegmentOf(ip)
	if old := a.seg; old != nil {
		if ok && old.name == name {
			return
		}
		n.dropMember(old, a)
	}
	if ok {
		n.insertMember(n.getSegment(name), a)
	}
}

// insertMember splices a into the segment's bucket, keeping ascending IP
// order so iteration stays deterministic.
func (n *Network) insertMember(seg *segment, a *Adapter) {
	r := receiverOf(a)
	ms := seg.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= a.ip })
	seg.spans = seg.spans || (len(ms) > 0 && ms[0].lane != r.lane)
	seg.members = slices.Insert(ms, i, r)
	seg.forgetGroups()
	a.seg = seg
}

func (n *Network) dropMember(seg *segment, a *Adapter) {
	ms := seg.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= a.ip })
	if i < len(ms) && ms[i].a == a {
		seg.members = slices.Delete(ms, i, i+1)
		seg.spans = spansLanes(seg.members)
		seg.forgetGroups()
	}
	a.seg = nil
}

// rebuild reconstructs the whole cache from the resolver.
func (n *Network) rebuild() {
	for _, seg := range n.segments { // order-free: each segment clears its own lists
		clear(seg.members)
		seg.members = seg.members[:0]
		seg.forgetGroups()
	}
	for _, ip := range n.order {
		a := n.adapters[ip]
		a.seg = nil
		if name, ok := n.resolver.SegmentOf(ip); ok {
			seg := n.getSegment(name)
			seg.members = append(seg.members, receiverOf(a)) // n.order is ascending
			a.seg = seg
		}
	}
	for _, seg := range n.segments { // order-free: each segment reads only its own list
		seg.spans = spansLanes(seg.members)
	}
	n.cacheVersion = n.resolver.Version()
	n.dirty = false
}

// SegmentMembers lists the addresses attached to segment, ascending.
func (n *Network) SegmentMembers(name string) []transport.IP {
	n.ensure()
	seg := n.segments[name]
	if seg == nil {
		return nil
	}
	out := make([]transport.IP, len(seg.members))
	for i, r := range seg.members {
		out[i] = r.ip
	}
	return out
}

// pairHash mixes an address pair (and optional salt) into a deterministic
// 64-bit value — the basis of every draw-free link model under sharding.
func pairHash(src, dst transport.IP, salt uint64) uint64 {
	return sim.Splitmix64(uint64(src)<<32 | uint64(dst)&0xffffffff ^ salt)
}

// pairSpread is the deterministic per-pair latency component in
// [0, Spread). It is a pure hash of the addresses — identical under any
// shard count, zero for profiles that don't opt in.
func pairSpread(p LinkProfile, src, dst transport.IP) time.Duration {
	if p.Spread <= 0 {
		return 0
	}
	return time.Duration(pairHash(src, dst, 0x5eed) % uint64(p.Spread))
}

// latency computes one delivery latency. The legacy (single-lane) network
// draws jitter from the scheduler's RNG exactly as it always has — the
// draw sequence of recorded runs is part of the replay contract; jit keeps
// the draw's rejection bound, so a send computes it once for all its
// receivers. A sharded network has no global RNG to share, so jitter
// becomes a stateless hash of (pair, send instant): deterministic under
// any shard count, and jit goes unused.
func (n *Network) latency(p *LinkProfile, jit *int63n, src, dst transport.IP, at time.Duration) time.Duration {
	d := p.Latency + pairSpread(*p, src, dst)
	if p.Jitter > 0 {
		if n.sharded {
			d += time.Duration(pairHash(src, dst, uint64(at)*0x9e3779b97f4a7c15) % uint64(p.Jitter))
		} else {
			d += time.Duration(jit.draw(n.sched.Rand(), int64(p.Jitter)))
		}
	}
	return d
}

// int63n is rand.Int63n with the rejection bound kept between draws: draw
// consumes the same source values and returns the same number Int63n(n)
// would, and computes the bound — a 64-bit modulus — only when n differs
// from the previous draw's. The zero value is ready for use.
type int63n struct {
	n, max int64 // max < 0: n is a power of two, drawn by masking
}

func (j *int63n) draw(r *rand.Rand, n int64) int64 {
	if n != j.n {
		if n <= 0 {
			panic("netsim: jitter draw over an empty range")
		}
		j.n, j.max = n, -1
		if n&(n-1) != 0 {
			j.max = int64((1 << 63) - 1 - (1<<63)%uint64(n))
		}
	}
	if j.max < 0 {
		return r.Int63() & (n - 1)
	}
	v := r.Int63()
	for v > j.max {
		v = r.Int63()
	}
	return v % n
}

// lost decides one per-receiver drop. Same split as latency: RNG draw on
// the legacy path, stateless (pair, send instant) hash when sharded.
func (n *Network) lost(p *LinkProfile, src, dst transport.IP, at time.Duration) bool {
	if p.Loss <= 0 {
		return false
	}
	if n.sharded {
		return float64(pairHash(src, dst, uint64(at)^0x10551055)%1_000_000_000)/1e9 < p.Loss
	}
	return n.sched.Rand().Float64() < p.Loss
}

// lane is the per-shard slice of the network's mutable delivery state: the
// scheduler the shard's events run on, the free list of in-flight
// transmissions, and the outgoing cross-shard bundle queues. Everything an
// adapter touches on the send/receive hot path lives in its home lane, so
// shards never contend. A legacy network is one lane.
type lane struct {
	net   *Network
	id    int
	sched *sim.Scheduler

	// Free list for in-flight transmissions. Only this lane's shard (or the
	// quiesced barrier) touches it — no locking.
	freeTx []*transmission
	// Scratch of transmission.post's sort: the list being scattered out of
	// (it trades places with the transmission's own) and the slice counts.
	scratch []sim.Arrival
	count   []int32

	// out[dst] queues bundles for other lanes (sharded only; see shard.go).
	out []bundleQueue
	// open[dst] is the bundle for lane dst of the send being built, nil
	// between sends.
	open []*bundle
	// send is the builder of the lane's send in progress.
	send sendBuilder
}

// addressing is how a transmission's receivers see its destination.
type addressing uint8

const (
	// toSelf: a unicast or a unicast fan; each receiver sees dst = {its
	// own IP, the port}.
	toSelf addressing = iota
	// toGroup: a multicast whose sender picked the subscribed receivers.
	toGroup
	// toGroupFiltered: a multicast flooded to the segment (RecvFilter);
	// each receiver's subscription is checked at arrival.
	toGroupFiltered
)

// transmission is one pooled packet in flight on a lane: the single copy
// of the payload every receiver shares, the addressing the handlers see,
// and the arrival list — one entry per receiver, one heap entry in all —
// that delivers it. A unicast is a transmission with one arrival.
type transmission struct {
	ln   *lane
	src  transport.Addr
	to   transport.Addr // the group, or for toSelf the port
	mode addressing
	b    []byte
	list sim.ArrivalList
	// The distribution sort's key: arrival a lands in slice
	// (a.At-lo)>>shift, whose tally add keeps in lane.count[slice+1] —
	// when sorting, that is: a send to one receiver has nothing to sort.
	lo      time.Duration
	shift   uint
	sorting bool
}

// newTx takes a transmission from the lane's pool and fills it with a
// private copy of payload — the single copy a transmission pays per lane —
// and an empty arrival list.
func (ln *lane) newTx(src, to transport.Addr, mode addressing, payload []byte) *transmission {
	var tx *transmission
	if k := len(ln.freeTx); k > 0 {
		tx = ln.freeTx[k-1]
		ln.freeTx[k-1] = nil
		ln.freeTx = ln.freeTx[:k-1]
	} else {
		tx = &transmission{ln: ln}
		tx.list.Fire, tx.list.Arg = arrive, tx
	}
	tx.src, tx.to, tx.mode = src, to, mode
	tx.b = append(tx.b[:0], payload...)
	tx.list.Arrivals = tx.list.Arrivals[:0]
	return tx
}

// arrive is the scheduler callback for every packet arrival. It is a
// package-level function taking the pooled transmission and the receiver
// as arguments, so scheduling it allocates nothing (no closure). It runs on
// the receiver's lane at the arrival instant, so the receiver's failure
// mode, bindings and group subscriptions are judged then, and always
// shard-locally.
func arrive(arg, dst any, last bool) {
	tx, a := arg.(*transmission), dst.(*Adapter)
	to := tx.to
	if tx.mode == toSelf {
		to.IP = a.ip
	}
	if a.canReceive() && (tx.mode != toGroupFiltered || a.inGroup(to)) {
		if h := a.handler(to.Port); h != nil {
			// The handler may use tx.b only for the duration of this call;
			// the buffer is recycled as soon as the last receiver ran.
			h(tx.src, to, tx.b)
		}
	}
	if last {
		tx.ln.freeTx = append(tx.ln.freeTx, tx)
	}
}

// expect readies the distribution sort for up to n arrivals in
// [lo, lo+span]: slices of width 2^shift, a power of two that cuts the
// range into at most 2n of them (and at least n/2 when span ≥ n), and
// their tallies cleared.
// A send knows its range before the first draw — its link's base latency
// plus the spread and jitter bounds — so add tallies as it goes and post
// only scatters.
func (tx *transmission) expect(lo, span time.Duration, n int) {
	tx.sorting = n > 1
	if !tx.sorting {
		return
	}
	tx.lo = lo
	// span < 2^s and 2^(l-1) <= n < 2^l, so span>>(s-l) < 2^l <= 2n: the
	// width without dividing.
	tx.shift = uint(max(bits.Len64(uint64(span))-bits.Len(uint(n)), 0))
	k := int(span>>tx.shift) + 2 // slices, plus one: count[s+1] tallies slice s
	ln := tx.ln
	ln.count = slices.Grow(ln.count[:0], k)[:k]
	clear(ln.count)
}

// add appends one receiver's arrival, at an instant inside the range
// given to expect. Arrivals are numbered in the order they are added, so a
// tie on the arrival instant goes to the receiver scheduled first — the
// order one scheduler event per receiver would have fired in.
func (tx *transmission) add(at time.Duration, dst *Adapter) {
	if tx.sorting {
		tx.ln.count[(at-tx.lo)>>tx.shift+1]++
	}
	tx.list.Arrivals = append(tx.list.Arrivals, sim.Arrival{At: at, Seq: uint64(len(tx.list.Arrivals)), Dst: dst})
}

// post sorts the arrivals into firing order, moves their sequence numbers
// onto a block reserved from the lane's scheduler, and queues the list.
//
// The sort is a distribution sort, not a comparison sort: a fan-out's
// latencies are spread evenly over the link's jitter range, so scattering
// n arrivals into about n equal time slices leaves them all but sorted —
// in send order within a slice, because the scatter is stable — and one
// insertion pass finishes the job. That is a few linear passes over a list
// that fits in L1, where pdqsort through a comparison callback was a
// quarter of a cold start. Latencies bunched into a few slices only make
// the insertion pass do more of the work; the result is the same.
func (tx *transmission) post() {
	ln := tx.ln
	as := tx.list.Arrivals
	base := ln.sched.ReserveSeq(len(as))
	if len(as) == 1 {
		as[0].Seq += base
	} else {
		count := ln.count
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		out := slices.Grow(ln.scratch[:0], len(as))[:len(as)]
		for i := range as {
			c := &count[(as[i].At-tx.lo)>>tx.shift]
			out[*c] = sim.Arrival{At: as[i].At, Seq: as[i].Seq + base, Dst: as[i].Dst}
			*c++
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].At <= out[i].At {
				continue
			}
			x, j := out[i], i
			for ; j > 0 && out[j-1].At > x.At; j-- {
				out[j] = out[j-1]
			}
			out[j] = x
		}
		tx.list.Arrivals, ln.scratch = out, as
	}
	ln.sched.PostArrivals(&tx.list)
}

// sendBuilder builds one send — a unicast, a unicast fan or a multicast —
// in one pass over its receivers: each offer draws that receiver's loss
// and latency and files its arrival, already tallied for the sort, on one
// transmission with one payload copy; a receiver on another lane joins
// that lane's bundle instead. It is the one send path of the package.
// Each lane keeps one, filled field by field for every send: a send runs
// no callback that could start another on its lane.
type sendBuilder struct {
	n       *Network
	ln      *lane
	src, to transport.Addr
	mode    addressing
	p       LinkProfile
	jit     int63n // the jitter draw's bound, kept across sends
	now     time.Duration
	width   int // candidate receivers, for sizing the sort
	payload []byte
	tx      *transmission // nil until the first local arrival
}

// newSend starts a send from a on its segment seg to up to width
// receivers. group selects multicast addressing; the segment's profile
// decides whether it is filtered at arrival.
func (a *Adapter) newSend(seg *segment, srcPort uint16, to transport.Addr, group bool, payload []byte, width int) *sendBuilder {
	ln := a.ln
	b := &ln.send
	b.n, b.ln = a.net, ln
	b.p = a.net.effectiveProfile(seg)
	b.mode = toSelf
	if group {
		b.mode = toGroup
		if b.p.RecvFilter {
			b.mode = toGroupFiltered
		}
	}
	b.src, b.to = transport.Addr{IP: a.ip, Port: srcPort}, to
	b.now, b.width, b.payload = ln.sched.Now(), width, payload
	return b
}

// offer decides one receiver's copy: loss first, then latency — the order
// the scheduler's RNG has always been drawn in. It reports false if the
// loss model dropped the copy. A receiver on another lane is bundled for
// the barrier, which resolves its loss and latency from the same
// stateless hashes; it counts as received.
func (b *sendBuilder) offer(r receiver) bool {
	ln := b.ln
	if int(r.lane) != ln.id {
		ln.bundleTo(int(r.lane), r.a, b.src, b.to, b.mode, b.payload, b.p)
		return true
	}
	if b.n.lost(&b.p, b.src.IP, r.ip, b.now) {
		return false
	}
	if b.tx == nil {
		b.tx = ln.newTx(b.src, b.to, b.mode, b.payload)
		b.tx.expect(b.now+b.p.Latency, b.p.Spread+b.p.Jitter, b.width)
	}
	b.tx.add(b.now+b.n.latency(&b.p, &b.jit, b.src.IP, r.ip, b.now), r.a)
	return true
}

// post queues what the send built: the local transmission, if any
// receiver got a copy, and the cross-lane bundles, which close.
func (b *sendBuilder) post() {
	if b.tx != nil {
		b.tx.post()
		b.tx = nil
	}
	b.payload = nil
	b.ln.sealBundles()
}

// wellKnownPlanes counts the ports with dedicated handler slots: the five
// GulfStream protocol planes plus SNMP. Everything else falls back to a
// lazily allocated map.
const wellKnownPlanes = 6

func planeIndex(port uint16) int {
	switch {
	case port >= transport.PortBeacon && port <= transport.PortJournal:
		return int(port - transport.PortBeacon)
	case port == transport.PortSNMP:
		return wellKnownPlanes - 1
	default:
		return -1
	}
}

// Adapter is one simulated network interface; it implements
// transport.Endpoint, transport.Liveness and transport.UnicastFanner.
type Adapter struct {
	net  *Network
	ln   *lane // home lane: the shard whose windows run this adapter
	ip   transport.IP
	mode FailureMode
	seg  *segment // current bucket; nil while disconnected or cache dirty
	// planes holds handlers for the well-known ports (hit on every
	// delivery, so no map lookup); bindings covers the rest.
	planes   [wellKnownPlanes]transport.Handler
	bindings map[uint16]transport.Handler
	groups   []transport.Addr // multicast subscriptions; tiny, scanned linearly
}

var (
	_ transport.Endpoint      = (*Adapter)(nil)
	_ transport.Liveness      = (*Adapter)(nil)
	_ transport.UnicastFanner = (*Adapter)(nil)
)

// LocalIP returns the adapter's address.
func (a *Adapter) LocalIP() transport.IP { return a.ip }

// Mode returns the adapter's current failure mode.
func (a *Adapter) Mode() FailureMode { return a.mode }

// SetMode sets the adapter's failure mode.
func (a *Adapter) SetMode(m FailureMode) { a.mode = m }

// Up reports whether the adapter is fully healthy. Partially failed
// adapters (FailRecv/FailSend) are not "up": the loopback test catches
// them, as the paper requires.
func (a *Adapter) Up() bool { return a.mode == Healthy }

func (a *Adapter) canSend() bool    { return a.mode == Healthy || a.mode == FailRecv }
func (a *Adapter) canReceive() bool { return a.mode == Healthy || a.mode == FailSend }

// Loopback self-tests the adapter's send+receive path.
func (a *Adapter) Loopback() bool {
	if !(a.canSend() && a.canReceive()) {
		return false
	}
	a.net.ensure()
	return a.seg != nil
}

// Bind registers h on port; nil unbinds.
func (a *Adapter) Bind(port uint16, h transport.Handler) {
	if i := planeIndex(port); i >= 0 {
		a.planes[i] = h
		return
	}
	if h == nil {
		delete(a.bindings, port)
		return
	}
	if a.bindings == nil {
		a.bindings = make(map[uint16]transport.Handler)
	}
	a.bindings[port] = h
}

// handler returns the handler bound to port, or nil.
func (a *Adapter) handler(port uint16) transport.Handler {
	if i := planeIndex(port); i >= 0 {
		return a.planes[i]
	}
	return a.bindings[port]
}

// JoinGroup subscribes to multicast group traffic on port.
func (a *Adapter) JoinGroup(group transport.IP, port uint16) {
	addr := transport.Addr{IP: group, Port: port}
	if !a.inGroup(addr) {
		a.groups = append(a.groups, addr)
		a.subscriptionsChanged()
	}
}

// LeaveGroup removes a multicast subscription.
func (a *Adapter) LeaveGroup(group transport.IP, port uint16) {
	addr := transport.Addr{IP: group, Port: port}
	for i, g := range a.groups {
		if g == addr {
			a.groups = append(a.groups[:i], a.groups[i+1:]...)
			a.subscriptionsChanged()
			return
		}
	}
}

// subscriptionsChanged empties the group tables that list a's
// subscriptions. A stale a.seg (cache dirty) is harmless: the rebuild
// empties every segment's tables.
func (a *Adapter) subscriptionsChanged() {
	if a.seg != nil {
		a.seg.forgetGroups()
	}
}

func (a *Adapter) inGroup(addr transport.Addr) bool {
	for _, g := range a.groups {
		if g == addr {
			return true
		}
	}
	return false
}

// ErrAdapterDown is returned from send operations on a dead interface.
var ErrAdapterDown = fmt.Errorf("netsim: adapter cannot transmit")

// ErrNoSegment is returned when the sending adapter has no connectivity.
var ErrNoSegment = fmt.Errorf("netsim: adapter not attached to any segment")

// attached returns the segment a sends on, or the local condition that
// stops it sending.
func (a *Adapter) attached() (*segment, error) {
	if !a.canSend() {
		return nil, ErrAdapterDown
	}
	a.net.ensure()
	if a.seg == nil {
		return nil, ErrNoSegment
	}
	return a.seg, nil
}

// Unicast sends payload to dst if dst shares the sender's segment.
// Cross-segment sends vanish silently (there are no routers between
// GulfStream segments, per the paper's network assumptions); only local
// conditions produce an error. The payload is copied before the call
// returns; the caller keeps ownership of its buffer.
func (a *Adapter) Unicast(srcPort uint16, dst transport.Addr, payload []byte) error {
	return a.UnicastFan(srcPort, dst.Port, []transport.IP{dst.IP}, payload)
}

// UnicastFan implements transport.UnicastFanner: one Unicast to each of
// dsts, in order — the same loss and latency draws, tap records and
// sequence numbers — built as one transmission, so the receivers share
// one payload copy and one arrival list.
func (a *Adapter) UnicastFan(srcPort, dstPort uint16, dsts []transport.IP, payload []byte) error {
	seg, err := a.attached()
	if err != nil {
		return err
	}
	s := a.newSend(seg, srcPort, transport.Addr{Port: dstPort}, false, payload, len(dsts))
	for _, ip := range dsts {
		received, dropped := 0, 0
		if target, ok := seg.find(ip); ok {
			if s.offer(target) {
				received = 1
			} else {
				dropped = 1
			}
		}
		if tap := a.net.tap; tap != nil {
			// A cross-lane receiver counts as received: the barrier decides
			// its loss.
			tap(Trace{Time: s.now, Src: a.ip, Dst: transport.Addr{IP: ip, Port: dstPort}, Segment: seg.name,
				Bytes: len(payload), Receivers: received, Dropped: dropped, Payload: payload})
		}
	}
	s.post()
	return nil
}

// Multicast sends payload to every subscribed adapter on the sender's
// segment, excluding the sender itself. The payload is copied exactly
// once per transmission; all receivers share the (immutable) copy.
func (a *Adapter) Multicast(srcPort uint16, group transport.Addr, payload []byte) error {
	seg, err := a.attached()
	if err != nil {
		return err
	}
	// A flooding segment (RecvFilter) delivers to every member and each
	// checks its subscription at arrival, on its own shard. A segment
	// whose members sit on several lanes must flood — reading another
	// lane's subscriptions mid-window would race — so that is checked
	// before any member is read. Local members get the same treatment,
	// so the semantics do not depend on the shard layout.
	rx := seg.members
	if !a.net.effectiveProfile(seg).RecvFilter {
		if seg.spans {
			panic("netsim: cross-shard multicast on a segment without RecvFilter")
		}
		rx = seg.subscribed(group)
	}
	s := a.newSend(seg, srcPort, group, true, payload, len(rx))
	received, dropped := 0, 0
	for _, r := range rx {
		if r.ip == a.ip {
			continue
		}
		if s.offer(r) {
			received++
		} else {
			dropped++
		}
	}
	s.post()
	if tap := a.net.tap; tap != nil {
		tap(Trace{Time: s.now, Src: a.ip, Dst: group, Segment: seg.name,
			Bytes: len(payload), Multicast: true, Receivers: received, Dropped: dropped, Payload: payload})
	}
	return nil
}

// StaticResolver is a trivial SegmentResolver backed by a map, for tests
// and single-segment experiments that need no switch fabric. It is
// deliberately not a NotifyingResolver, so it exercises the
// version-triggered rebuild path.
type StaticResolver struct {
	seg     map[transport.IP]string
	version uint64
}

// NewStaticResolver returns an empty resolver.
func NewStaticResolver() *StaticResolver {
	return &StaticResolver{seg: make(map[transport.IP]string), version: 1}
}

// Attach maps an adapter to a segment (replacing any previous mapping).
func (r *StaticResolver) Attach(ip transport.IP, segment string) {
	r.seg[ip] = segment
	r.version++
}

// SegmentOf implements SegmentResolver.
func (r *StaticResolver) SegmentOf(ip transport.IP) (string, bool) {
	s, ok := r.seg[ip]
	return s, ok
}

// Version implements SegmentResolver.
func (r *StaticResolver) Version() uint64 { return r.version }
