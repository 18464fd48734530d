package detect

import (
	"time"

	"repro/internal/amg"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ringDetector implements the paper's §3 heartbeat ring. In unidirectional
// mode each adapter heartbeats its right neighbor and monitors its left;
// bidirectional mode does both directions, which lets the leader demand a
// two-neighbor consensus before acting.
type ringDetector struct {
	p   Params
	env Env
	bi  bool

	view    amg.Membership
	targets []transport.IP // who we heartbeat
	mon     *monitorSet    // who we expect heartbeats from
	seq     uint64
	hb      wire.Heartbeat // reused each tick; Send does not retain it
	ticker  transport.Timer
	stopped bool
}

func newRing(p Params, env Env, bi bool) *ringDetector {
	return &ringDetector{p: p, env: env, bi: bi, mon: newMonitorSet()}
}

// Kind implements Detector.
func (r *ringDetector) Kind() Kind {
	if r.bi {
		return BiRing
	}
	return Ring
}

// Reconfigure implements Detector.
func (r *ringDetector) Reconfigure(view amg.Membership) {
	r.view = view
	self := r.env.Self()
	r.targets = r.targets[:0]
	var monitored []transport.IP
	if view.Size() >= 2 && view.Contains(self) {
		left, right := view.Neighbors(self)
		if r.bi {
			r.targets = appendUnique(r.targets, self, right, left)
			monitored = appendUnique(nil, self, left, right)
		} else {
			r.targets = appendUnique(r.targets, self, right)
			monitored = appendUnique(nil, self, left)
		}
	}
	r.mon.reset(monitored, r.env.Clock().Now())
	r.ensureTicker()
}

// appendUnique appends candidates to dst skipping self and duplicates.
func appendUnique(dst []transport.IP, self transport.IP, candidates ...transport.IP) []transport.IP {
next:
	for _, c := range candidates {
		if c == self || c == 0 {
			continue
		}
		for _, d := range dst {
			if d == c {
				continue next
			}
		}
		dst = append(dst, c)
	}
	return dst
}

func (r *ringDetector) ensureTicker() {
	if r.ticker != nil || r.stopped {
		return
	}
	r.ticker = r.env.Clock().AfterFunc(r.p.Interval, r.tick)
}

func (r *ringDetector) tick() {
	if r.stopped {
		return
	}
	r.seq++
	r.hb = wire.Heartbeat{From: r.env.Self(), Seq: r.seq, Version: r.view.Version, Leader: r.view.Leader()}
	for _, t := range r.targets {
		r.env.Send(t, &r.hb)
	}
	limit := time.Duration(r.p.MissThreshold) * r.p.Interval
	now := r.env.Clock().Now()
	for _, ip := range r.mon.overdue(now, limit, limit) {
		r.mon.markSuspected(ip, now)
		r.env.ReportSuspect(ip, wire.ReasonMissedHeartbeats)
	}
	if r.stopped || r.ticker == nil {
		return // a callback above stopped us mid-tick
	}
	r.ticker.Reset(r.p.Interval)
}

// Handle implements Detector.
func (r *ringDetector) Handle(src transport.IP, m wire.Message) bool {
	hb, ok := m.(*wire.Heartbeat)
	if !ok {
		return false
	}
	r.mon.heard(hb.From, r.env.Clock().Now())
	_ = src
	return true
}

// Stop implements Detector.
func (r *ringDetector) Stop() {
	r.stopped = true
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// allToAll heartbeats every member and monitors every member — the
// baseline whose per-segment load grows quadratically with group size.
type allToAll struct {
	p   Params
	env Env

	view    amg.Membership
	peers   []transport.IP
	mon     *monitorSet
	seq     uint64
	hb      wire.Heartbeat // reused each tick
	ticker  transport.Timer
	stopped bool
}

func newAllToAll(p Params, env Env) *allToAll {
	return &allToAll{p: p, env: env, mon: newMonitorSet()}
}

// Kind implements Detector.
func (a *allToAll) Kind() Kind { return AllToAll }

// Reconfigure implements Detector.
func (a *allToAll) Reconfigure(view amg.Membership) {
	a.view = view
	self := a.env.Self()
	a.peers = a.peers[:0]
	for _, m := range view.Members {
		if m.IP != self {
			a.peers = append(a.peers, m.IP)
		}
	}
	a.mon.reset(a.peers, a.env.Clock().Now())
	if a.ticker == nil && !a.stopped {
		a.ticker = a.env.Clock().AfterFunc(a.p.Interval, a.tick)
	}
}

func (a *allToAll) tick() {
	if a.stopped {
		return
	}
	a.seq++
	a.hb = wire.Heartbeat{From: a.env.Self(), Seq: a.seq, Version: a.view.Version, Leader: a.view.Leader()}
	for _, p := range a.peers {
		a.env.Send(p, &a.hb)
	}
	limit := time.Duration(a.p.MissThreshold) * a.p.Interval
	now := a.env.Clock().Now()
	for _, ip := range a.mon.overdue(now, limit, limit) {
		a.mon.markSuspected(ip, now)
		a.env.ReportSuspect(ip, wire.ReasonMissedHeartbeats)
	}
	if a.stopped || a.ticker == nil {
		return
	}
	a.ticker.Reset(a.p.Interval)
}

// Handle implements Detector.
func (a *allToAll) Handle(_ transport.IP, m wire.Message) bool {
	hb, ok := m.(*wire.Heartbeat)
	if !ok {
		return false
	}
	a.mon.heard(hb.From, a.env.Clock().Now())
	return true
}

// Stop implements Detector.
func (a *allToAll) Stop() {
	a.stopped = true
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
}
