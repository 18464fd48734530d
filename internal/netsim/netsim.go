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
	name     string
	members  []*Adapter // ascending IP
	profile  LinkProfile
	override bool // profile explicitly set; otherwise the network default applies
}

// find locates the member with the given address, or nil.
func (s *segment) find(ip transport.IP) *Adapter {
	ms := s.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= ip })
	if i < len(ms) && ms[i].ip == ip {
		return ms[i]
	}
	return nil
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
	ms := seg.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= a.ip })
	ms = append(ms, nil)
	copy(ms[i+1:], ms[i:])
	ms[i] = a
	seg.members = ms
	a.seg = seg
}

func (n *Network) dropMember(seg *segment, a *Adapter) {
	ms := seg.members
	i := sort.Search(len(ms), func(i int) bool { return ms[i].ip >= a.ip })
	if i < len(ms) && ms[i] == a {
		copy(ms[i:], ms[i+1:])
		ms[len(ms)-1] = nil
		seg.members = ms[:len(ms)-1]
	}
	a.seg = nil
}

// rebuild reconstructs the whole cache from the resolver.
func (n *Network) rebuild() {
	for _, seg := range n.segments { // order-free: each segment clears its own list
		for i := range seg.members {
			seg.members[i] = nil
		}
		seg.members = seg.members[:0]
	}
	for _, ip := range n.order {
		a := n.adapters[ip]
		a.seg = nil
		if name, ok := n.resolver.SegmentOf(ip); ok {
			seg := n.getSegment(name)
			seg.members = append(seg.members, a) // n.order is ascending
			a.seg = seg
		}
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
	for i, a := range seg.members {
		out[i] = a.ip
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
// draw sequence of recorded runs is part of the replay contract. A sharded
// network has no global RNG to share, so jitter becomes a stateless hash
// of (pair, send instant): deterministic under any shard count.
func (n *Network) latency(p LinkProfile, src, dst transport.IP, at time.Duration) time.Duration {
	d := p.Latency + pairSpread(p, src, dst)
	if p.Jitter > 0 {
		if n.sharded {
			d += time.Duration(pairHash(src, dst, uint64(at)*0x9e3779b97f4a7c15) % uint64(p.Jitter))
		} else {
			d += time.Duration(n.sched.Rand().Int63n(int64(p.Jitter)))
		}
	}
	return d
}

// lost decides one per-receiver drop. Same split as latency: RNG draw on
// the legacy path, stateless (pair, send instant) hash when sharded.
func (n *Network) lost(p LinkProfile, src, dst transport.IP, at time.Duration) bool {
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
	// mcb scratch: per-destination-lane bundle of the multicast currently
	// being sent, nil between sends.
	mcb []*bundle
}

// transmission is one pooled packet in flight on a lane: the single copy
// of the payload every receiver shares, the addressing the handlers see,
// and the arrival list — one entry per receiver, one heap entry in all —
// that delivers it. filter defers the multicast subscription check to
// arrival time (RecvFilter segments). A unicast is a transmission with one
// arrival.
type transmission struct {
	ln     *lane
	src    transport.Addr
	to     transport.Addr
	b      []byte
	filter bool
	list   sim.ArrivalList
}

// newTx takes a transmission from the lane's pool and fills it with a
// private copy of payload — the single copy a transmission pays per lane —
// and an empty arrival list.
func (ln *lane) newTx(src, to transport.Addr, payload []byte, filter bool) *transmission {
	var tx *transmission
	if k := len(ln.freeTx); k > 0 {
		tx = ln.freeTx[k-1]
		ln.freeTx[k-1] = nil
		ln.freeTx = ln.freeTx[:k-1]
	} else {
		tx = &transmission{ln: ln}
		tx.list.Fire, tx.list.Arg = arrive, tx
	}
	tx.src, tx.to, tx.filter = src, to, filter
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
	if a.canReceive() && !(tx.filter && !a.inGroup(tx.to)) {
		if h := a.handler(tx.to.Port); h != nil {
			// The handler may use tx.b only for the duration of this call;
			// the buffer is recycled as soon as the last receiver ran.
			h(tx.src, tx.to, tx.b)
		}
	}
	if last {
		tx.ln.freeTx = append(tx.ln.freeTx, tx)
	}
}

// add appends one receiver's arrival. Callers number arrivals in the order
// they add them, so a tie on the arrival instant goes to the receiver
// scheduled first — the order one scheduler event per receiver would have
// fired in.
func (tx *transmission) add(at time.Duration, seq uint64, dst *Adapter) {
	tx.list.Arrivals = append(tx.list.Arrivals, sim.Arrival{At: at, Seq: seq, Dst: dst})
}

// post sorts the arrivals added since newTx — numbered 0, 1, 2, … in send
// order — into firing order, moves their sequence numbers onto a block
// reserved from the lane's scheduler, and queues the list.
//
// The sort is a distribution sort, not a comparison sort: a fan-out's
// latencies are spread evenly over the link's jitter range, so scattering
// n arrivals into about n equal time slices leaves them all but sorted —
// in send order within a slice, because the scatter is stable — and one
// insertion pass finishes the job. That is a few linear passes over a list
// that fits in L1, where pdqsort through a comparison callback was a
// quarter of a cold start. Latencies bunched into a few slices (an outlier
// stretching the range, say) only make the insertion pass do more of the
// work; the result is the same.
func (tx *transmission) post() {
	ln := tx.ln
	as := tx.list.Arrivals
	base := ln.sched.ReserveSeq(len(as))
	lo, hi := as[0].At, as[0].At
	for i := range as {
		as[i].Seq += base
		lo, hi = min(lo, as[i].At), max(hi, as[i].At)
	}
	if lo < hi {
		// Slice width 2^shift: the power of two that cuts the range into
		// between n/2 and n+1 slices.
		shift := bits.Len64(uint64(hi-lo) / uint64(len(as)))
		k := int((hi-lo)>>shift) + 2 // slices, plus one: count[s+1] tallies slice s
		count := slices.Grow(ln.count[:0], k)[:k]
		clear(count)
		for i := range as {
			count[(as[i].At-lo)>>shift+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		out := slices.Grow(ln.scratch[:0], len(as))[:len(as)]
		for i := range as {
			c := &count[(as[i].At-lo)>>shift]
			out[*c] = as[i]
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
		tx.list.Arrivals, ln.scratch, ln.count = out, as, count
	}
	ln.sched.PostArrivals(&tx.list)
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
// transport.Endpoint and transport.Liveness.
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
	_ transport.Endpoint = (*Adapter)(nil)
	_ transport.Liveness = (*Adapter)(nil)
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
	}
}

// LeaveGroup removes a multicast subscription.
func (a *Adapter) LeaveGroup(group transport.IP, port uint16) {
	addr := transport.Addr{IP: group, Port: port}
	for i, g := range a.groups {
		if g == addr {
			a.groups = append(a.groups[:i], a.groups[i+1:]...)
			return
		}
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

// Unicast sends payload to dst if dst shares the sender's segment.
// Cross-segment sends vanish silently (there are no routers between
// GulfStream segments, per the paper's network assumptions); only local
// conditions produce an error. The payload is copied before the call
// returns; the caller keeps ownership of its buffer.
func (a *Adapter) Unicast(srcPort uint16, dst transport.Addr, payload []byte) error {
	if !a.canSend() {
		return ErrAdapterDown
	}
	n := a.net
	n.ensure()
	seg := a.seg
	if seg == nil {
		return ErrNoSegment
	}
	src := transport.Addr{IP: a.ip, Port: srcPort}
	now := a.ln.sched.Now()
	received, dropped := 0, 0
	if target := seg.find(dst.IP); target != nil {
		p := n.effectiveProfile(seg)
		if target.ln == a.ln {
			if n.lost(p, a.ip, dst.IP, now) {
				dropped = 1
			} else {
				received = 1
				tx := a.ln.newTx(src, dst, payload, false)
				tx.add(now+n.latency(p, a.ip, dst.IP, now), 0, target)
				tx.post()
			}
		} else {
			// Cross-shard: queue a bundle; loss and latency are resolved at
			// the barrier from the same stateless hashes, so the verdict is
			// identical. The trace reports the pre-loss candidate.
			received = 1
			a.ln.postCross(target, src, dst, payload, p, false)
		}
	}
	if n.tap != nil {
		n.tap(Trace{Time: now, Src: a.ip, Dst: dst, Segment: seg.name,
			Bytes: len(payload), Receivers: received, Dropped: dropped, Payload: payload})
	}
	return nil
}

// Multicast sends payload to every subscribed adapter on the sender's
// segment, excluding the sender itself. The payload is copied exactly
// once per transmission; all receivers share the (immutable) copy.
func (a *Adapter) Multicast(srcPort uint16, group transport.Addr, payload []byte) error {
	if !a.canSend() {
		return ErrAdapterDown
	}
	n := a.net
	n.ensure()
	seg := a.seg
	if seg == nil {
		return ErrNoSegment
	}
	src := transport.Addr{IP: a.ip, Port: srcPort}
	p := n.effectiveProfile(seg)
	now := a.ln.sched.Now()
	received, dropped := 0, 0
	var tx *transmission
	for _, m := range seg.members {
		if m == a {
			continue
		}
		if p.RecvFilter {
			// Receiver-side filtering: the segment floods every member and
			// the subscription check happens at arrival, on the receiver's
			// own shard. Mandatory for cross-shard segments — reading a
			// remote adapter's subscriptions mid-window would race — and
			// applied identically to local members so the semantics do not
			// depend on the shard layout.
		} else if m.ln != a.ln {
			panic("netsim: cross-shard multicast on a segment without RecvFilter")
		} else if !m.inGroup(group) {
			continue
		}
		if m.ln != a.ln {
			received++
			a.ln.postMulticast(m, src, group, payload, p)
			continue
		}
		if n.lost(p, a.ip, m.ip, now) {
			dropped++
			continue
		}
		received++
		if tx == nil {
			tx = a.ln.newTx(src, group, payload, p.RecvFilter)
		}
		tx.add(now+n.latency(p, a.ip, m.ip, now), uint64(len(tx.list.Arrivals)), m)
	}
	if tx != nil {
		tx.post()
	}
	a.ln.sealMulticast()
	if n.tap != nil {
		n.tap(Trace{Time: now, Src: a.ip, Dst: group, Segment: seg.name,
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
