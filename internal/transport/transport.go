// Package transport defines the narrow waist between GulfStream protocol
// code and the world it runs in. Daemons are written purely against Clock
// and Transport; the simulator (internal/netsim + internal/sim) and the
// real UDP-multicast transport (this package's UDPTransport) both satisfy
// these interfaces, so identical protocol code runs in deterministic
// simulation and on real networks.
package transport

import (
	"fmt"
	"time"
)

// IP is an IPv4 address in host byte order. GulfStream orders adapters and
// elects leaders by numeric IP comparison, exactly as the paper specifies
// ("the adapter with the highest IP address").
type IP uint32

// MakeIP builds an IP from dotted-quad components.
func MakeIP(a, b, c, d byte) IP {
	return IP(a)<<24 | IP(b)<<16 | IP(c)<<8 | IP(d)
}

// ParseIP parses a dotted-quad string. It returns 0, false on malformed
// input (GulfStream has no use for a zero address, so 0 doubles as "none").
func ParseIP(s string) (IP, bool) {
	var a, b, c, d int
	if n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); n != 4 || err != nil {
		return 0, false
	}
	for _, v := range [...]int{a, b, c, d} {
		if v < 0 || v > 255 {
			return 0, false
		}
	}
	return MakeIP(byte(a), byte(b), byte(c), byte(d)), true
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IsMulticast reports whether ip falls in the IPv4 class D range.
func (ip IP) IsMulticast() bool { return ip>>28 == 0xe }

// Addr is a UDP-style endpoint: an adapter (or multicast group) plus port.
type Addr struct {
	IP   IP
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("%v:%d", a.IP, a.Port) }

// Well-known GulfStream ports and groups. The paper specifies "a well-known
// address and port" for BEACON multicast; the remaining ports separate the
// protocol planes so metrics can attribute load per plane.
const (
	PortBeacon    uint16 = 7400 // BEACON multicast (discovery)
	PortMember    uint16 = 7401 // 2PC membership traffic, joins, merges
	PortHeartbeat uint16 = 7402 // heartbeats, suspicions, probes, pings
	PortReport    uint16 = 7403 // AMG-leader -> GulfStream Central reports
	PortJournal   uint16 = 7404 // journal stream: active Central -> warm standby
	PortSNMP      uint16 = 161  // switch management agents
)

// BeaconGroup is the well-known multicast group BEACONs are sent to.
var BeaconGroup = MakeIP(224, 0, 0, 71)

// Timer mirrors time.Timer's Stop/Reset contract.
type Timer interface {
	// Stop cancels the timer, reporting whether it prevented the fire.
	Stop() bool
	// Reset re-arms the timer to fire d from now with its original
	// callback, reporting whether it was still pending. Resetting from
	// inside the timer's own callback is the cheap way to run a
	// fixed-interval loop: it reuses the timer instead of allocating a
	// fresh one every period.
	Reset(d time.Duration) bool
}

// Clock abstracts time for protocol code. Now is an offset from an
// arbitrary epoch (simulation start, or process start for UDP).
type Clock interface {
	Now() time.Duration
	AfterFunc(d time.Duration, fn func()) Timer
}

// Handler receives packets delivered to a bound port. src is the sending
// adapter's address; dst distinguishes unicast from multicast delivery.
// The payload is only valid for the duration of the call: transports may
// reuse the buffer (and share it between the receivers of one multicast),
// so a handler that needs the bytes afterwards must copy them. wire.Decode
// already copies everything it keeps.
type Handler func(src, dst Addr, payload []byte)

// Endpoint is one network adapter's view of the transport: it can send
// from its own address and bind handlers on local ports.
type Endpoint interface {
	// LocalIP returns the adapter's address.
	LocalIP() IP
	// Unicast sends payload from srcPort to dst. Delivery is best-effort;
	// an error reports only local conditions (adapter down, not bound).
	// The transport does not retain payload after the call returns, so
	// callers may reuse (or pool) their encode buffers immediately.
	Unicast(srcPort uint16, dst Addr, payload []byte) error
	// Multicast sends payload from srcPort to every adapter on the local
	// network segment that has joined group, excluding the sender.
	Multicast(srcPort uint16, group Addr, payload []byte) error
	// Bind registers h for packets arriving on port. Binding a bound port
	// replaces the handler. A nil handler unbinds.
	Bind(port uint16, h Handler)
	// JoinGroup subscribes the adapter to a multicast group on port.
	JoinGroup(group IP, port uint16)
	// Loopback performs a local self-test of the adapter's send+receive
	// path, reporting whether the adapter is operational. The paper's
	// daemons run exactly this test before accusing a ring neighbor.
	Loopback() bool
}

// Liveness is an optional interface of Endpoints whose underlying adapter
// can be administratively or physically down.
type Liveness interface {
	Up() bool
}

// GroupLeaver is an optional interface of Endpoints that can drop a
// multicast membership joined earlier with JoinGroup. The UDP endpoint
// implements it; simulated endpoints may not (the simulator tears whole
// adapters down instead), so callers type-assert.
type GroupLeaver interface {
	LeaveGroup(group IP, port uint16)
}

// UnicastFanner is an optional interface of Endpoints that can send one
// payload to many unicast destinations as a single transmission. The
// outcome must be that of one Unicast per destination, in list order:
// each receiver's handler sees dst = {its own IP, dstPort}. The simulated
// adapter implements it with one shared payload copy; callers go through
// UnicastFan.
type UnicastFanner interface {
	UnicastFan(srcPort, dstPort uint16, dsts []IP, payload []byte) error
}

// UnicastFan sends payload from srcPort to dstPort on every address in
// dsts: as one transmission if ep is a UnicastFanner, else as one Unicast
// per destination, in order. It returns the first error; a failed
// destination does not stop the rest.
func UnicastFan(ep Endpoint, srcPort, dstPort uint16, dsts []IP, payload []byte) error {
	if f, ok := ep.(UnicastFanner); ok {
		return f.UnicastFan(srcPort, dstPort, dsts, payload)
	}
	var first error
	for _, ip := range dsts {
		if err := ep.Unicast(srcPort, Addr{IP: ip, Port: dstPort}, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}
