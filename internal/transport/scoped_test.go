package transport

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// loopbackMulticastWorks probes whether this host delivers multicast over
// loopback (sandboxes often don't); tests that need it skip otherwise.
func loopbackMulticastWorks(t *testing.T) bool {
	t.Helper()
	gaddr := &net.UDPAddr{IP: net.IPv4(239, 7, 7, 7), Port: 47999}
	ifi := interfaceFor(net.IPv4(127, 0, 0, 1))
	rc, err := net.ListenMulticastUDP("udp4", ifi, gaddr)
	if err != nil {
		return false
	}
	defer rc.Close()
	sc, err := listenUDPReuse(net.IPv4(127, 0, 0, 2), 0)
	if err != nil {
		return false
	}
	defer sc.Close()
	if err := setMulticastInterface(sc, net.IPv4(127, 0, 0, 2)); err != nil {
		return false
	}
	if _, err := sc.WriteToUDP([]byte("probe"), gaddr); err != nil {
		return false
	}
	rc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 16)
	_, _, err = rc.ReadFromUDP(buf)
	return err == nil
}

// testPort returns a per-process port to keep parallel CI jobs from
// colliding on the loopback namespace.
func testPort() uint16 { return uint16(40000 + os.Getpid()%20000) }

// recvSink collects packets delivered to an endpoint's bound handler.
type recvSink struct {
	mu   sync.Mutex
	got  []string
	cond chan struct{}
}

func newRecvSink() *recvSink { return &recvSink{cond: make(chan struct{}, 64)} }

func (s *recvSink) handler(src, dst Addr, payload []byte) {
	s.mu.Lock()
	s.got = append(s.got, fmt.Sprintf("%v>%v:%s", src.IP, dst.IP, payload))
	s.mu.Unlock()
	select {
	case s.cond <- struct{}{}:
	default:
	}
}

func (s *recvSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// waitCount waits until the sink has at least n packets or the deadline
// passes, reporting the final count.
func (s *recvSink) waitCount(n int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		if c := s.count(); c >= n {
			return c
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return s.count()
		}
		select {
		case <-s.cond:
		case <-time.After(remain):
		}
	}
}

// scopedPeer is one emulated daemon adapter: a UDP endpoint wrapped in a
// segment scope, bound on the test port and joined to BeaconGroup.
type scopedPeer struct {
	ep   *UDPEndpoint
	sc   *ScopedEndpoint
	sink *recvSink
}

func newScopedPeer(t *testing.T, rt *Runtime, ip IP, scope IP, port uint16) *scopedPeer {
	t.Helper()
	ep, err := NewUDPEndpoint(rt, ip)
	if err != nil {
		t.Fatalf("NewUDPEndpoint(%v): %v", ip, err)
	}
	t.Cleanup(ep.Close)
	sc := NewScopedEndpoint(ep, scope)
	sink := newRecvSink()
	sc.Bind(port, sink.handler)
	sc.JoinGroup(BeaconGroup, port)
	return &scopedPeer{ep: ep, sc: sc, sink: sink}
}

// TestScopedMulticastSegments checks the heart of the loopback fabric:
// two daemons on one host whose endpoints share a scope group see each
// other's beacons, while a third daemon on a different scope sees
// nothing — and a rescope (the emulated port-VLAN rewrite) moves its
// visibility without touching its address.
func TestScopedMulticastSegments(t *testing.T) {
	if !loopbackMulticastWorks(t) {
		t.Skip("loopback multicast unavailable in this environment")
	}
	rt := NewRuntime()
	rt.RunAsync()
	// Registered before the endpoints so their Close cleanups run first:
	// Runtime.Close waits for every readLoop, which exit only once their
	// sockets close.
	t.Cleanup(rt.Close)

	port := testPort()
	segA := MakeIP(239, 71, 1, 1)
	segB := MakeIP(239, 71, 1, 2)

	p1 := newScopedPeer(t, rt, MakeIP(127, 0, 0, 11), segA, port)
	p2 := newScopedPeer(t, rt, MakeIP(127, 0, 0, 12), segA, port)
	p3 := newScopedPeer(t, rt, MakeIP(127, 0, 0, 13), segB, port)

	// p1 beacons to the well-known group; the scope rewrites it to segA.
	beacon := func(p *scopedPeer) {
		if err := p.sc.Multicast(port, Addr{IP: BeaconGroup, Port: port}, []byte("beacon")); err != nil {
			t.Fatalf("Multicast: %v", err)
		}
	}
	beacon(p1)
	if got := p2.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("same-scope peer saw %d beacons, want >= 1", got)
	}
	beacon(p2)
	if got := p1.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("same-scope peer saw %d beacons, want >= 1", got)
	}
	if got := p3.sink.count(); got != 0 {
		t.Fatalf("cross-scope peer saw %d beacons, want 0: %v", got, p3.sink.got)
	}

	// Rescope p3 into segA — the emulated VLAN rewrite — and beacon again.
	// That beacon goes to p2 as well (its second from p1; own multicast
	// is suppressed): wait for both copies, so nothing sent before the
	// leave below is still in flight.
	p3.sc.Rescope(segA)
	beacon(p1)
	if got := p3.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("rescoped peer saw %d beacons, want >= 1", got)
	}
	before := p2.sink.waitCount(2, 2*time.Second)
	if before != 2 {
		t.Fatalf("same-scope peer saw %d beacons from p1, want 2", before)
	}

	// Leave: dropping p2's membership stops delivery to it. LeaveGroup
	// closes the membership socket before it returns and every earlier
	// beacon has been received, so p2's count can only move if the leave
	// did not take; p3 receiving the beacon shows it was really sent.
	p2.ep.LeaveGroup(segA, port)
	beacon(p1)
	if got := p3.sink.waitCount(2, 2*time.Second); got != 2 {
		t.Fatalf("still-joined peer saw %d beacons, want 2", got)
	}
	if got := p2.sink.waitCount(before+1, 50*time.Millisecond); got != before {
		t.Fatalf("left peer saw %d beacons, want %d", got, before)
	}
}

// TestScopedFaultModes checks the socket-level fault injection the
// loopback fabric uses in place of pulling cables.
func TestScopedFaultModes(t *testing.T) {
	if !loopbackMulticastWorks(t) {
		t.Skip("loopback multicast unavailable in this environment")
	}
	rt := NewRuntime()
	rt.RunAsync()
	t.Cleanup(rt.Close)

	port := testPort() + 1
	seg := MakeIP(239, 71, 2, 1)
	p1 := newScopedPeer(t, rt, MakeIP(127, 0, 0, 21), seg, port)
	p2 := newScopedPeer(t, rt, MakeIP(127, 0, 0, 22), seg, port)

	send := func() {
		if err := p1.sc.Multicast(port, Addr{IP: BeaconGroup, Port: port}, []byte("b")); err != nil {
			t.Fatalf("Multicast: %v", err)
		}
	}
	send()
	if got := p2.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("healthy path saw %d, want >= 1", got)
	}

	// fail-send on the sender: beacons stop leaving.
	if err := p1.sc.SetFault(FaultSend, 0, 0); err != nil {
		t.Fatal(err)
	}
	if p1.sc.Loopback() {
		t.Fatal("faulted adapter still passes Loopback self-test")
	}
	before := p2.sink.count()
	send()
	time.Sleep(100 * time.Millisecond)
	if got := p2.sink.count(); got != before {
		t.Fatalf("fail-send leaked a packet (%d -> %d)", before, got)
	}

	// Recover, then fail-recv on the receiver: packets arrive at the
	// socket but the wrapper swallows them.
	if err := p1.sc.SetFault(FaultHealthy, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p2.sc.SetFault(FaultRecv, 0, 0); err != nil {
		t.Fatal(err)
	}
	send()
	time.Sleep(100 * time.Millisecond)
	if got := p2.sink.count(); got != before {
		t.Fatalf("fail-recv leaked a packet (%d -> %d)", before, got)
	}

	// fail-stop reports the adapter down to the Liveness probe.
	if err := p2.sc.SetFault(FaultStop, 0, 0); err != nil {
		t.Fatal(err)
	}
	if p2.sc.Up() {
		t.Fatal("fail-stop adapter reports Up")
	}
	if err := p2.sc.SetFault(FaultHealthy, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !p2.sc.Up() {
		t.Fatal("recovered adapter reports down")
	}
	send()
	if got := p2.sink.waitCount(before+1, 2*time.Second); got <= before {
		t.Fatalf("recovered path saw no beacon (%d)", got)
	}

	if err := p1.sc.SetFault("no-such-mode", 0, 0); err == nil {
		t.Fatal("SetFault accepted an unknown mode")
	}
	if err := p1.sc.SetFault(FaultHealthy, 1.5, 0); err == nil {
		t.Fatal("SetFault accepted loss rate > 1")
	}
}

// TestScopedSegmentTable checks the unicast half of segment emulation:
// with a fabric segment table installed, unicast to or from an adapter
// registered under a different scope dies at the wrapper (as it would at
// a real bridge), unregistered peers (switch agents, tooling) pass, and
// updating the table after a rescope restores connectivity.
func TestScopedSegmentTable(t *testing.T) {
	rt := NewRuntime()
	rt.RunAsync()
	t.Cleanup(rt.Close)

	port := testPort() + 2
	segA := MakeIP(239, 71, 3, 1)
	segB := MakeIP(239, 71, 3, 2)
	ipA := MakeIP(127, 0, 0, 31)
	ipB := MakeIP(127, 0, 0, 32)
	ipX := MakeIP(127, 0, 0, 33) // unregistered (switch agent analog)

	pA := newScopedPeer(t, rt, ipA, segA, port)
	pB := newScopedPeer(t, rt, ipB, segA, port)
	pX := newScopedPeer(t, rt, ipX, segA, port)

	sameSeg := map[IP]IP{ipA: segA, ipB: segA}
	pA.sc.SetSegments(sameSeg)
	pB.sc.SetSegments(sameSeg)

	send := func(from *scopedPeer, to IP) {
		if err := from.sc.Unicast(port, Addr{IP: to, Port: port}, []byte("u")); err != nil {
			t.Fatalf("Unicast: %v", err)
		}
	}
	send(pA, ipB)
	if got := pB.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("same-segment unicast saw %d, want >= 1", got)
	}

	// Move B to segB in the table only: A's sends to B drop at A (send
	// side), and B's sends to A drop at A too (receive side) — even
	// though B's own stale table still allows the send.
	split := map[IP]IP{ipA: segA, ipB: segB}
	pA.sc.SetSegments(split)
	before := pB.sink.count()
	send(pA, ipB)
	time.Sleep(100 * time.Millisecond)
	if got := pB.sink.count(); got != before {
		t.Fatalf("cross-segment unicast leaked at sender (%d -> %d)", before, got)
	}
	beforeA := pA.sink.count()
	send(pB, ipA)
	time.Sleep(100 * time.Millisecond)
	if got := pA.sink.count(); got != beforeA {
		t.Fatalf("cross-segment unicast leaked at receiver (%d -> %d)", beforeA, got)
	}

	// Unregistered peers always pass, both directions.
	send(pA, ipX)
	if got := pX.sink.waitCount(1, 2*time.Second); got < 1 {
		t.Fatalf("unicast to unregistered peer saw %d, want >= 1", got)
	}
	send(pX, ipA)
	if got := pA.sink.waitCount(beforeA+1, 2*time.Second); got <= beforeA {
		t.Fatalf("unicast from unregistered peer dropped")
	}

	// Rescope B to segB and push the matching table: connectivity within
	// the new segment layout is restored for a peer that moved with it.
	pB.sc.Rescope(segB)
	pB.sc.SetSegments(split)
	pA.sc.Rescope(segB)
	moved := map[IP]IP{ipA: segB, ipB: segB}
	pA.sc.SetSegments(moved)
	pB.sc.SetSegments(moved)
	send(pA, ipB)
	if got := pB.sink.waitCount(before+1, 2*time.Second); got <= before {
		t.Fatalf("post-rescope unicast saw %d, want > %d", got, before)
	}
}
