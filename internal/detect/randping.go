package detect

import (
	"time"

	"repro/internal/amg"
	"repro/internal/transport"
	"repro/internal/wire"
)

// randPing implements the randomized distributed pinging protocol the
// paper cites as its scalable alternative to heartbeat rings (§4.2,
// ref [9] — Gupta, Chandra & Goldszmidt). Each protocol period the adapter
// pings one uniformly random member; on silence it asks K proxies to ping
// the target on its behalf; only if both the direct and all indirect paths
// stay silent is the target suspected. Per-member network load is constant
// in group size.
type randPing struct {
	p   Params
	env Env

	view    amg.Membership
	peers   []transport.IP
	nonce   uint64
	ticker  transport.Timer
	stopped bool

	// outstanding direct-or-indirect probes by nonce
	waiting map[uint64]*pingRound
}

type pingRound struct {
	target   transport.IP
	indirect bool
	timer    transport.Timer
}

func newRandPing(p Params, env Env) *randPing {
	return &randPing{p: p, env: env, waiting: make(map[uint64]*pingRound)}
}

// Kind implements Detector.
func (r *randPing) Kind() Kind { return RandPing }

// Reconfigure implements Detector.
func (r *randPing) Reconfigure(view amg.Membership) {
	r.view = view
	self := r.env.Self()
	r.peers = r.peers[:0]
	for _, m := range view.Members {
		if m.IP != self {
			r.peers = append(r.peers, m.IP)
		}
	}
	// Rounds for removed members stay pending; their timers resolve
	// harmlessly because suspicion re-checks membership.
	if r.ticker == nil && !r.stopped {
		r.ticker = r.env.Clock().AfterFunc(r.p.Interval, r.tick)
	}
}

func (r *randPing) tick() {
	if r.stopped {
		return
	}
	if len(r.peers) > 0 {
		target := r.peers[r.env.Rand().Intn(len(r.peers))]
		r.nonce++
		nonce := r.nonce
		r.env.Send(target, &wire.Ping{From: r.env.Self(), Nonce: nonce, Leader: r.view.Leader()})
		round := &pingRound{target: target}
		r.waiting[nonce] = round
		round.timer = r.env.Clock().AfterFunc(r.p.PingTimeout, func() { r.directTimeout(nonce) })
	}
	if r.stopped || r.ticker == nil {
		return
	}
	r.ticker.Reset(r.p.Interval)
}

// directTimeout escalates to indirect pings through up to Proxies members.
func (r *randPing) directTimeout(nonce uint64) {
	round, ok := r.waiting[nonce]
	if !ok || r.stopped {
		return
	}
	round.indirect = true
	proxies := r.pickProxies(round.target)
	if len(proxies) == 0 {
		r.conclude(nonce)
		return
	}
	for _, p := range proxies {
		r.env.Send(p, &wire.PingReq{From: r.env.Self(), Target: round.target, Nonce: nonce})
	}
	// Give indirect probes the rest of the protocol period.
	wait := r.p.Interval - r.p.PingTimeout
	if wait < r.p.PingTimeout {
		wait = r.p.PingTimeout
	}
	round.timer = r.env.Clock().AfterFunc(wait, func() { r.conclude(nonce) })
}

func (r *randPing) pickProxies(target transport.IP) []transport.IP {
	var cands []transport.IP
	for _, p := range r.peers {
		if p != target {
			cands = append(cands, p)
		}
	}
	r.env.Rand().Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > r.p.Proxies {
		cands = cands[:r.p.Proxies]
	}
	return cands
}

// conclude fires after direct and indirect probes all stayed silent.
func (r *randPing) conclude(nonce uint64) {
	round, ok := r.waiting[nonce]
	if !ok || r.stopped {
		return
	}
	delete(r.waiting, nonce)
	if r.view.Contains(round.target) {
		r.env.ReportSuspect(round.target, wire.ReasonPingTimeout)
	}
}

// Handle implements Detector.
func (r *randPing) Handle(src transport.IP, m wire.Message) bool {
	if r.stopped {
		switch m.(type) {
		case *wire.Ping, *wire.PingReq, *wire.PingAck:
			return true
		}
		return false
	}
	switch msg := m.(type) {
	case *wire.Ping:
		// Answer to whoever sent it (requester or proxy), tagging the
		// original requester so proxies can route the ack home.
		r.env.Send(src, &wire.PingAck{From: r.env.Self(), Target: msg.From, Nonce: msg.Nonce})
		return true
	case *wire.PingReq:
		// Proxy: ping the target on the requester's behalf. We forward
		// the requester's identity inside Ping.From so the target's ack
		// comes back through us carrying it.
		r.env.Send(msg.Target, &wire.Ping{From: msg.From, Nonce: msg.Nonce})
		return true
	case *wire.PingAck:
		if msg.Target == r.env.Self() || msg.Target == 0 {
			// Ack for one of our rounds (direct, or proxied home).
			if round, ok := r.waiting[msg.Nonce]; ok && round.target == msg.From {
				round.timer.Stop()
				delete(r.waiting, msg.Nonce)
			}
			return true
		}
		// We are the proxy on the return path: forward to the requester.
		r.env.Send(msg.Target, msg)
		return true
	default:
		return false
	}
}

// Stop implements Detector.
func (r *randPing) Stop() {
	r.stopped = true
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
	for n, round := range r.waiting { // order-free: stopping a timer schedules nothing
		round.timer.Stop()
		delete(r.waiting, n)
	}
}

// subgroupDetector implements §4.2's subgroup scheme: the membership is
// split into rank-contiguous subgroups; each subgroup runs a tight
// unidirectional ring internally, and the group leader polls one
// representative per foreign subgroup at low frequency to catch the rare
// catastrophic loss of an entire subgroup.
type subgroupDetector struct {
	p   Params
	env Env

	view    amg.Membership
	sub     []wire.Member // my subgroup, rank order
	subIdx  int
	targets []transport.IP
	mon     *monitorSet
	seq     uint64
	hb      wire.Heartbeat // reused each tick
	ticker  transport.Timer
	stopped bool

	// leader-side polling state
	pollTicker  transport.Timer
	pollNonce   uint64
	pollPending map[uint64]bool
}

func newSubgroup(p Params, env Env) *subgroupDetector {
	return &subgroupDetector{p: p, env: env, mon: newMonitorSet(), pollPending: make(map[uint64]bool)}
}

// Kind implements Detector.
func (s *subgroupDetector) Kind() Kind { return Subgroup }

// Reconfigure implements Detector.
func (s *subgroupDetector) Reconfigure(view amg.Membership) {
	s.view = view
	self := s.env.Self()
	s.sub = nil
	s.subIdx = -1
	s.targets = s.targets[:0]
	var monitored []transport.IP

	subs := view.Subgroups(s.p.SubgroupSize)
	for i, sub := range subs {
		for _, m := range sub {
			if m.IP == self {
				s.sub = sub
				s.subIdx = i
			}
		}
	}
	if len(s.sub) >= 2 {
		// Ring within the subgroup.
		pos := -1
		for i, m := range s.sub {
			if m.IP == self {
				pos = i
			}
		}
		right := s.sub[(pos+1)%len(s.sub)].IP
		left := s.sub[(pos-1+len(s.sub))%len(s.sub)].IP
		s.targets = appendUnique(s.targets, self, right)
		monitored = appendUnique(nil, self, left)
	}
	s.mon.reset(monitored, s.env.Clock().Now())
	if s.ticker == nil && !s.stopped {
		s.ticker = s.env.Clock().AfterFunc(s.p.Interval, s.tick)
	}
	// Leader polls foreign subgroups.
	if view.Leader() == self && len(subs) > 1 {
		if s.pollTicker == nil && !s.stopped {
			s.pollTicker = s.env.Clock().AfterFunc(s.p.PollInterval, s.poll)
		}
	} else if s.pollTicker != nil {
		s.pollTicker.Stop()
		s.pollTicker = nil
	}
}

func (s *subgroupDetector) tick() {
	if s.stopped {
		return
	}
	s.seq++
	s.hb = wire.Heartbeat{From: s.env.Self(), Seq: s.seq, Version: s.view.Version, Leader: s.view.Leader()}
	for _, t := range s.targets {
		s.env.Send(t, &s.hb)
	}
	limit := time.Duration(s.p.MissThreshold) * s.p.Interval
	now := s.env.Clock().Now()
	for _, ip := range s.mon.overdue(now, limit, limit) {
		s.mon.markSuspected(ip, now)
		s.env.ReportSuspect(ip, wire.ReasonMissedHeartbeats)
	}
	if s.stopped || s.ticker == nil {
		return
	}
	s.ticker.Reset(s.p.Interval)
}

// poll sends a SubPoll to every foreign subgroup, trying each member in
// rank order until one answers within PollTimeout; a fully silent
// subgroup is reported member by member.
func (s *subgroupDetector) poll() {
	if s.stopped {
		return
	}
	subs := s.view.Subgroups(s.p.SubgroupSize)
	for i, sub := range subs {
		if i == s.subIdx {
			continue
		}
		s.pollSubgroup(uint32(i), sub, 0)
	}
	if s.stopped || s.pollTicker == nil {
		return
	}
	s.pollTicker.Reset(s.p.PollInterval)
}

func (s *subgroupDetector) pollSubgroup(idx uint32, sub []wire.Member, attempt int) {
	if s.stopped {
		return
	}
	if attempt >= len(sub) {
		// Catastrophic: the whole subgroup is silent.
		for _, m := range sub {
			s.env.ReportSuspect(m.IP, wire.ReasonSubgroupDead)
		}
		return
	}
	s.pollNonce++
	nonce := s.pollNonce
	rep := sub[attempt].IP
	s.pollPending[nonce] = true
	s.env.Send(rep, &wire.SubPoll{From: s.env.Self(), Subgroup: idx, Nonce: nonce})
	s.env.Clock().AfterFunc(s.p.PollTimeout, func() {
		if !s.pollPending[nonce] {
			return // answered in time
		}
		delete(s.pollPending, nonce)
		if s.stopped {
			return
		}
		s.pollSubgroup(idx, sub, attempt+1)
	})
}

// Handle implements Detector.
func (s *subgroupDetector) Handle(src transport.IP, m wire.Message) bool {
	if s.stopped {
		switch m.(type) {
		case *wire.Heartbeat, *wire.SubPoll, *wire.SubPollAck:
			return true
		}
		return false
	}
	switch msg := m.(type) {
	case *wire.Heartbeat:
		s.mon.heard(msg.From, s.env.Clock().Now())
		return true
	case *wire.SubPoll:
		alive := uint32(1)
		limit := time.Duration(s.p.MissThreshold) * s.p.Interval
		now := s.env.Clock().Now()
		for _, at := range s.mon.lastSeen {
			if now-at <= limit {
				alive++
			}
		}
		s.env.Send(src, &wire.SubPollAck{From: s.env.Self(), Subgroup: msg.Subgroup, Nonce: msg.Nonce, Alive: alive})
		return true
	case *wire.SubPollAck:
		delete(s.pollPending, msg.Nonce)
		return true
	default:
		return false
	}
}

// Stop implements Detector.
func (s *subgroupDetector) Stop() {
	s.stopped = true
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if s.pollTicker != nil {
		s.pollTicker.Stop()
		s.pollTicker = nil
	}
}
