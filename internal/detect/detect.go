// Package detect implements the failure-detection strategies GulfStream
// runs inside an Adapter Membership Group. The paper's prototype uses a
// logical heartbeat ring (§3, unidirectional or bidirectional); §4.2
// sketches two scalability alternatives — subgroup heartbeating and a
// randomized distributed pinging protocol (ref [9]) — and compares against
// the all-to-all heartbeating of systems like HACMP. All four are here,
// behind one interface, so the load/latency trade-offs can be measured
// against each other (experiment E5).
//
// Detectors only *suspect*; confirming a death (loopback self-test first,
// then the group leader's direct probe) is the daemon's job in
// internal/core.
package detect

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"repro/internal/amg"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Kind selects a detection strategy.
type Kind int

// Detector kinds.
const (
	// Ring: heartbeat the right neighbor, monitor the left (paper §3).
	Ring Kind = iota + 1
	// BiRing: heartbeat and monitor both neighbors; the leader requires a
	// consensus of two suspicions (paper §3's improvement).
	BiRing
	// AllToAll: every member heartbeats every other (HACMP-style baseline;
	// "scales poorly" per §5).
	AllToAll
	// RandPing: randomized distributed pinging with indirect probes
	// (paper §4.2, ref [9]).
	RandPing
	// Subgroup: tight rings inside small subgroups plus low-frequency
	// leader polling of each subgroup (paper §4.2).
	Subgroup
)

func (k Kind) String() string {
	switch k {
	case Ring:
		return "ring"
	case BiRing:
		return "biring"
	case AllToAll:
		return "all-to-all"
	case RandPing:
		return "randping"
	case Subgroup:
		return "subgroup"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a name to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := Ring; k <= Subgroup; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("detect: unknown detector %q", s)
}

// Params tunes a detector.
type Params struct {
	// Interval is the heartbeat (or ping-round) period Th.
	Interval time.Duration
	// MissThreshold is how many consecutive missed intervals mark a
	// neighbor suspect (the paper's "one strike and you're out" is 1).
	MissThreshold int
	// PingTimeout bounds a direct ping before indirect probing starts.
	PingTimeout time.Duration
	// Proxies is how many members relay an indirect ping.
	Proxies int
	// SubgroupSize bounds subgroup membership.
	SubgroupSize int
	// PollInterval is the leader's low-frequency subgroup poll period.
	PollInterval time.Duration
	// PollTimeout bounds one subgroup poll.
	PollTimeout time.Duration
}

// Defaults returns the parameter set used by the prototype experiments.
func Defaults() Params {
	return Params{
		Interval:      1 * time.Second,
		MissThreshold: 3,
		PingTimeout:   400 * time.Millisecond,
		Proxies:       2,
		SubgroupSize:  8,
		PollInterval:  5 * time.Second,
		PollTimeout:   1 * time.Second,
	}
}

// Env is what a detector may do to the world. The daemon's per-adapter
// protocol state implements it.
type Env interface {
	// Self returns the local adapter's address.
	Self() transport.IP
	// Clock returns the time source.
	Clock() transport.Clock
	// Rand returns the deterministic random source.
	Rand() *rand.Rand
	// Send transmits a message on the heartbeat plane.
	Send(dst transport.IP, m wire.Message)
	// ReportSuspect raises a suspicion about a member. The daemon runs
	// the loopback self-test and routes the report to the verifier.
	ReportSuspect(suspect transport.IP, reason wire.SuspectReason)
}

// Detector is a pluggable failure-detection strategy for one adapter.
type Detector interface {
	// Reconfigure installs a new committed membership view.
	Reconfigure(view amg.Membership)
	// Handle processes an incoming heartbeat-plane message, reporting
	// whether it consumed it.
	Handle(src transport.IP, m wire.Message) bool
	// Stop cancels all timers.
	Stop()
	// Kind identifies the strategy.
	Kind() Kind
}

// New constructs a detector of the given kind.
func New(kind Kind, p Params, env Env) Detector {
	switch kind {
	case Ring:
		return newRing(p, env, false)
	case BiRing:
		return newRing(p, env, true)
	case AllToAll:
		return newAllToAll(p, env)
	case RandPing:
		return newRandPing(p, env)
	case Subgroup:
		return newSubgroup(p, env)
	default:
		panic(fmt.Sprintf("detect: bad kind %d", kind))
	}
}

// monitorSet tracks last-heard times for a set of monitored peers. A
// suspicion is raised when a peer stays silent past the limit, and then
// re-raised periodically while the silence lasts — a single Suspect
// message to the leader may be lost, and a one-shot report would leave
// the failure undetected forever.
type monitorSet struct {
	lastSeen  map[transport.IP]time.Duration
	suspected map[transport.IP]time.Duration // last report time
}

func newMonitorSet() *monitorSet {
	return &monitorSet{
		lastSeen:  make(map[transport.IP]time.Duration),
		suspected: make(map[transport.IP]time.Duration),
	}
}

// watch begins monitoring ip as of now (grace: counts as just heard).
func (m *monitorSet) watch(ip transport.IP, now time.Duration) {
	if _, ok := m.lastSeen[ip]; !ok {
		m.lastSeen[ip] = now
	}
}

// reset replaces the watch set with ips.
func (m *monitorSet) reset(ips []transport.IP, now time.Duration) {
	keep := make(map[transport.IP]bool, len(ips))
	for _, ip := range ips {
		keep[ip] = true
	}
	maps.DeleteFunc(m.lastSeen, func(ip transport.IP, _ time.Duration) bool {
		if keep[ip] {
			return false
		}
		delete(m.suspected, ip)
		return true
	})
	for _, ip := range ips {
		m.watch(ip, now)
	}
}

// heard records a sign of life.
func (m *monitorSet) heard(ip transport.IP, now time.Duration) {
	if _, ok := m.lastSeen[ip]; ok {
		m.lastSeen[ip] = now
		delete(m.suspected, ip)
	}
}

// overdue returns, in ascending address order, peers silent longer than
// limit whose last report (if any) is at least reRaise old.
func (m *monitorSet) overdue(now, limit, reRaise time.Duration) []transport.IP {
	var out []transport.IP
	for ip, at := range m.lastSeen { // order-free: sorted below
		if now-at <= limit {
			continue
		}
		if last, reported := m.suspected[ip]; reported && now-last < reRaise {
			continue
		}
		out = append(out, ip)
	}
	if len(out) > 1 {
		slices.Sort(out)
	}
	return out
}

func (m *monitorSet) markSuspected(ip transport.IP, now time.Duration) { m.suspected[ip] = now }
