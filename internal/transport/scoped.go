// ScopedEndpoint emulates physical network segments on a single host.
//
// The protocol's only use of multicast is the well-known BeaconGroup
// (BEACON discovery and Central's resync pull); unicast always targets a
// concrete adapter. So "which segment is this adapter plugged into"
// reduces entirely to "which multicast group do its BEACONs reach":
// rewriting the group per endpoint puts every adapter sharing a scope
// group on one virtual segment, and Rescope is the loopback-fabric
// equivalent of an SNMP port-VLAN rewrite — the adapter keeps its
// address and sockets but its broadcast domain changes under it.
//
// The wrapper also injects adapter-level faults the way internal/netsim
// does for simulated adapters: fail-stop / fail-recv / fail-send modes
// and probabilistic loss per direction, applied at the socket boundary so
// the daemon above runs unmodified.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
)

// Fault modes a ScopedEndpoint can emulate, mirroring
// internal/netsim.FailureMode's names.
const (
	FaultHealthy = "healthy"
	FaultStop    = "fail-stop"
	FaultRecv    = "fail-recv"
	FaultSend    = "fail-send"
)

// ScopedEndpoint wraps an Endpoint, rewriting every multicast group the
// protocol names to a per-segment scope group and applying fault filters.
// All methods are safe for concurrent use.
type ScopedEndpoint struct {
	inner Endpoint

	mu              sync.Mutex
	scope           IP            // current scope group (0 = pass groups through)
	joined          map[Addr]bool // (original group, port) memberships requested
	segments        map[IP]IP     // adapter -> scope group (nil: no unicast filtering)
	mode            string
	lossIn, lossOut float64
	rng             *rand.Rand
}

// NewScopedEndpoint wraps inner so that any multicast group is rewritten
// to scope (scope 0 passes groups through unchanged).
func NewScopedEndpoint(inner Endpoint, scope IP) *ScopedEndpoint {
	return &ScopedEndpoint{
		inner:  inner,
		scope:  scope,
		joined: make(map[Addr]bool),
		mode:   FaultHealthy,
		rng:    rand.New(rand.NewSource(int64(inner.LocalIP()) + 1)),
	}
}

// mapGroup rewrites a multicast group to the current scope. Caller holds mu.
func (s *ScopedEndpoint) mapGroup(group IP) IP {
	if s.scope != 0 && group.IsMulticast() {
		return s.scope
	}
	return group
}

// Scope returns the current scope group.
func (s *ScopedEndpoint) Scope() IP {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scope
}

// Rescope moves the endpoint to a new segment: every membership joined
// through this wrapper is left under the old scope and re-joined under
// the new one. The underlying endpoint must implement GroupLeaver for
// the leave half (UDPEndpoint does).
func (s *ScopedEndpoint) Rescope(scope IP) {
	s.mu.Lock()
	old := s.scope
	s.scope = scope
	memberships := make([]Addr, 0, len(s.joined))
	for a := range s.joined { // order-free: each membership is left and re-joined on its own
		memberships = append(memberships, a)
	}
	s.mu.Unlock()
	if old == scope {
		return
	}
	leaver, _ := s.inner.(GroupLeaver)
	for _, a := range memberships {
		oldGroup := a.IP
		if old != 0 && a.IP.IsMulticast() {
			oldGroup = old
		}
		if leaver != nil {
			leaver.LeaveGroup(oldGroup, a.Port)
		}
		newGroup := a.IP
		if scope != 0 && a.IP.IsMulticast() {
			newGroup = scope
		}
		s.inner.JoinGroup(newGroup, a.Port)
	}
}

// SetSegments installs the fabric's segment table: which scope group each
// adapter address currently belongs to. With a table installed, unicast to
// or from an adapter registered under a different scope than this
// endpoint's is dropped — on a real network those frames would die at the
// bridge, but on a single loopback interface every address reaches every
// other unless we filter. Addresses absent from the table (switch
// management agents, external tooling) always pass. The table must not be
// mutated after the call; install a fresh map to update it.
func (s *ScopedEndpoint) SetSegments(table map[IP]IP) {
	s.mu.Lock()
	s.segments = table
	s.mu.Unlock()
}

// crossSegment reports whether unicast traffic with peer must be dropped
// because the segment table places it on a different segment than ours.
func (s *ScopedEndpoint) crossSegment(peer IP) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scope == 0 || s.segments == nil || peer.IsMulticast() {
		return false
	}
	want, ok := s.segments[peer]
	return ok && want != s.scope
}

// SetFault installs a failure mode and per-direction loss rates
// (probabilities in [0, 1]). Mode "" keeps the current mode.
func (s *ScopedEndpoint) SetFault(mode string, lossIn, lossOut float64) error {
	switch mode {
	case "", FaultHealthy, FaultStop, FaultRecv, FaultSend:
	default:
		return fmt.Errorf("transport: unknown fault mode %q", mode)
	}
	if lossIn < 0 || lossIn > 1 || lossOut < 0 || lossOut > 1 {
		return fmt.Errorf("transport: loss rates must be in [0,1]")
	}
	s.mu.Lock()
	if mode != "" {
		s.mode = mode
	}
	s.lossIn, s.lossOut = lossIn, lossOut
	s.mu.Unlock()
	return nil
}

// canSend / canRecv consult the fault state, consuming one loss draw.
func (s *ScopedEndpoint) canSend() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == FaultStop || s.mode == FaultSend {
		return false
	}
	return s.lossOut == 0 || s.rng.Float64() >= s.lossOut
}

func (s *ScopedEndpoint) canRecv() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == FaultStop || s.mode == FaultRecv {
		return false
	}
	return s.lossIn == 0 || s.rng.Float64() >= s.lossIn
}

// LocalIP implements Endpoint.
func (s *ScopedEndpoint) LocalIP() IP { return s.inner.LocalIP() }

// Unicast implements Endpoint. A multicast destination is rescoped; a
// faulted send direction silently drops (the point of the fault).
func (s *ScopedEndpoint) Unicast(srcPort uint16, dst Addr, payload []byte) error {
	if !s.canSend() {
		return nil
	}
	if s.crossSegment(dst.IP) {
		return nil
	}
	s.mu.Lock()
	dst.IP = s.mapGroup(dst.IP)
	s.mu.Unlock()
	return s.inner.Unicast(srcPort, dst, payload)
}

// Multicast implements Endpoint.
func (s *ScopedEndpoint) Multicast(srcPort uint16, group Addr, payload []byte) error {
	if !s.canSend() {
		return nil
	}
	s.mu.Lock()
	group.IP = s.mapGroup(group.IP)
	s.mu.Unlock()
	return s.inner.Multicast(srcPort, group, payload)
}

// Bind implements Endpoint, wrapping the handler with the receive-side
// fault filter.
func (s *ScopedEndpoint) Bind(port uint16, h Handler) {
	if h == nil {
		s.inner.Bind(port, nil)
		return
	}
	s.inner.Bind(port, func(src, dst Addr, payload []byte) {
		if !s.canRecv() {
			return
		}
		if s.crossSegment(src.IP) {
			return
		}
		h(src, dst, payload)
	})
}

// JoinGroup implements Endpoint: the membership is recorded under the
// protocol's group name and joined under the scope group.
func (s *ScopedEndpoint) JoinGroup(group IP, port uint16) {
	s.mu.Lock()
	s.joined[Addr{IP: group, Port: port}] = true
	mapped := s.mapGroup(group)
	s.mu.Unlock()
	s.inner.JoinGroup(mapped, port)
}

// Loopback implements Endpoint: the paper's self-test of the local
// send+receive path fails under any injected adapter fault (netsim's
// Adapter.Loopback has the same semantics).
func (s *ScopedEndpoint) Loopback() bool {
	s.mu.Lock()
	healthy := s.mode == FaultHealthy
	s.mu.Unlock()
	return healthy && s.inner.Loopback()
}

// Up implements Liveness: fail-stop is "administratively down".
func (s *ScopedEndpoint) Up() bool {
	s.mu.Lock()
	stopped := s.mode == FaultStop
	s.mu.Unlock()
	if stopped {
		return false
	}
	if l, ok := s.inner.(Liveness); ok {
		return l.Up()
	}
	return true
}
