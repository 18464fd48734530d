package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// listenUDPReuse opens a UDP socket with SO_REUSEADDR, letting unicast
// per-adapter sockets share a port number with the multicast group socket.
func listenUDPReuse(ip net.IP, port int) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: reuseControl}
	pc, err := lc.ListenPacket(context.Background(), "udp4",
		(&net.UDPAddr{IP: ip, Port: port}).String())
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}

// Runtime drives event-driven GulfStream components (the daemon, Central)
// over real time and real sockets. All socket reads and timer firings are
// serialized onto one goroutine — the same single-threaded discipline the
// simulator provides — so protocol code needs no locking.
type Runtime struct {
	events chan event
	start  time.Time
	closed atomic.Bool
	wg     sync.WaitGroup
}

// event is one turn of the event loop, queued by value so that neither a
// packet nor a timer fire allocates: a packet for ep (data, owned by the
// event until dispatch, in the pooled rx buffer when rx is set), a timer
// fire, or a posted fn. The zero event is Close's stop sentinel.
type event struct {
	fn    func()
	timer *udpTimer
	ep    *UDPEndpoint
	port  uint16
	src   Addr
	rx    *[rxPooled]byte
	data  []byte
}

// rxPooled is the pooled receive buffer size: heartbeats, beacons, acks
// and a 64-member report all fit; a larger datagram gets an exact make.
const rxPooled = 2048

var rxPool = sync.Pool{New: func() any { return new([rxPooled]byte) }}

// NewRuntime returns an idle runtime; call Run (or RunAsync) to start
// dispatching.
func NewRuntime() *Runtime {
	return &Runtime{events: make(chan event, 1024), start: time.Now()}
}

// Now implements Clock: time since the runtime was created.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Start returns the wall-clock instant Now is measured from. Processes
// that export flight-recorder timestamps (which are Now offsets) publish
// this so an external merger can align streams from different daemons
// onto one farm-wide clock.
func (r *Runtime) Start() time.Time { return r.start }

// Ready is the one-line JSON readiness message a daemon writes once its
// Runtime runs (gsd -ready-fd): the orchestrator's signal that sockets
// are bound and the protocol clock is running. StartUnixNS is Start, the
// epoch of the daemon's trace timestamps.
type Ready struct {
	Node        string   `json:"node"`
	PID         int      `json:"pid"`
	StartUnixNS int64    `json:"start_unix_ns"`
	Adapters    []string `json:"adapters"`
	DebugAddr   string   `json:"debug_addr,omitempty"`
}

// QueueDepth is the number of events waiting for the loop.
func (r *Runtime) QueueDepth() int { return len(r.events) }

// AfterFunc implements Clock. The callback is serialized onto the event
// loop.
func (r *Runtime) AfterFunc(d time.Duration, fn func()) Timer {
	t := &udpTimer{fn: fn}
	t.t = time.AfterFunc(d, func() { r.post(event{timer: t}) })
	return t
}

type udpTimer struct {
	fn      func()
	t       *time.Timer
	mu      sync.Mutex
	stopped bool
}

// fire runs on the event loop: fn, unless Stop won the race.
func (t *udpTimer) fire() {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if !stopped {
		t.fn()
	}
}

func (t *udpTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	return t.t.Stop()
}

// Reset implements Timer by re-arming the underlying time.Timer.
func (t *udpTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	was := !t.stopped && t.t.Stop()
	t.stopped = false
	t.t.Reset(d)
	return was
}

// Post enqueues fn onto the event loop, serialized with all socket and
// timer callbacks — the only safe way for outside goroutines to touch
// event-driven components (daemons, Central) owned by this runtime.
func (r *Runtime) Post(fn func()) { r.post(event{fn: fn}) }

// post enqueues ev for the event loop, blocking on a full queue rather
// than dropping protocol events; it reports false, dropping ev, once the
// runtime is closed.
func (r *Runtime) post(ev event) bool {
	if r.closed.Load() {
		return false
	}
	r.events <- ev
	return true
}

// Run dispatches events until Close.
func (r *Runtime) Run() {
	for ev := range r.events {
		switch {
		case ev.ep != nil:
			ev.ep.deliver(ev.port, ev.src, ev.data)
			if ev.rx != nil {
				rxPool.Put(ev.rx)
			}
		case ev.timer != nil:
			ev.timer.fire()
		case ev.fn != nil:
			ev.fn()
		default:
			return
		}
	}
}

// RunAsync starts Run on its own goroutine.
func (r *Runtime) RunAsync() { go r.Run() }

// Close stops the loop and all endpoint sockets created from it.
func (r *Runtime) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.events <- event{}
	r.wg.Wait()
}

// UDPEndpoint implements Endpoint over real UDP sockets bound to one
// local adapter address. Each bound GulfStream port gets its own socket;
// multicast groups are joined per (group, port).
type UDPEndpoint struct {
	rt    *Runtime
	ip    IP
	ifi   *net.Interface // interface owning ip (for multicast), may be nil
	local net.IP

	mu       sync.Mutex
	handlers map[uint16]Handler
	socks    map[uint16]*net.UDPConn
	msocks   map[Addr]*net.UDPConn
	closed   bool

	Counters UDPCounters
}

// UDPCounters are an endpoint's cumulative socket counters, for export.
// A drop is a packet read off a socket that reached no handler:
// DropUnbound found none bound on its port, DropClosed arrived after the
// runtime closed. DeadSockets counts read loops that ended with their
// socket still bound; any one makes Loopback fail.
type UDPCounters struct {
	RxPackets, RxBytes, ReadErrors, TxErrors, DropUnbound, DropClosed, DeadSockets atomic.Uint64
}

// NewUDPEndpoint creates an endpoint for the given local IPv4 address.
func NewUDPEndpoint(rt *Runtime, ip IP) (*UDPEndpoint, error) {
	local := net.IPv4(byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
	e := &UDPEndpoint{
		rt:       rt,
		ip:       ip,
		local:    local,
		handlers: make(map[uint16]Handler),
		socks:    make(map[uint16]*net.UDPConn),
		msocks:   make(map[Addr]*net.UDPConn),
	}
	e.ifi = interfaceFor(local)
	return e, nil
}

// interfaceFor finds the network interface carrying addr: an exact
// address match wins, otherwise subnet containment (secondary loopback
// addresses like 127.0.0.2 live inside lo's 127.0.0.1/8 without being
// listed explicitly).
func interfaceFor(addr net.IP) *net.Interface {
	ifaces, err := net.Interfaces()
	if err != nil {
		return nil
	}
	var bySubnet *net.Interface
	for i := range ifaces {
		addrs, err := ifaces[i].Addrs()
		if err != nil {
			continue
		}
		for _, a := range addrs {
			ipn, ok := a.(*net.IPNet)
			if !ok {
				continue
			}
			if ipn.IP.Equal(addr) {
				return &ifaces[i]
			}
			if bySubnet == nil && ipn.Contains(addr) {
				bySubnet = &ifaces[i]
			}
		}
	}
	return bySubnet
}

// LocalIP implements Endpoint.
func (e *UDPEndpoint) LocalIP() IP { return e.ip }

// Bind implements Endpoint: it opens a UDP socket on (localIP, port) and
// dispatches arriving packets through the runtime's event loop.
func (e *UDPEndpoint) Bind(port uint16, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h == nil {
		delete(e.handlers, port)
		if c, ok := e.socks[port]; ok {
			c.Close()
			delete(e.socks, port)
		}
		return
	}
	e.handlers[port] = h
	if _, ok := e.socks[port]; ok {
		return
	}
	conn, err := listenUDPReuse(e.local, int(port))
	if err != nil {
		return // adapter address not configured; sends will fail too
	}
	_ = setMulticastInterface(conn, e.local)
	e.socks[port] = conn
	e.readLoop(conn, port, 0)
}

// readLoop pumps one socket into the event loop. On a group membership
// socket where our own transmissions echo back (multicast
// loopback) and must be suppressed; on unicast-bound sockets a packet
// from our own address is a genuine self-send (e.g. an AMG leader
// reporting to the Central it hosts) and must be delivered.
// group is the membership's group address, 0 for a unicast socket.
//
// A datagram is copied out of the socket's scratch buffer into a pooled
// one its event owns until the handler returns (the Handler contract).
// Read errors are counted and retried after a bounded backoff; a loop
// that ends with its socket still bound marks the endpoint dead.
func (e *UDPEndpoint) readLoop(conn *net.UDPConn, port uint16, group IP) {
	e.rt.wg.Add(1)
	go func() {
		defer e.rt.wg.Done()
		buf := make([]byte, 64*1024)
		backoff := time.Duration(0)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if errors.Is(err, net.ErrClosed) {
				// Unbind, LeaveGroup and Close forget a socket under mu
				// before closing it.
				e.mu.Lock()
				if e.socks[port] == conn || e.msocks[Addr{IP: group, Port: port}] == conn {
					e.Counters.DeadSockets.Add(1)
				}
				e.mu.Unlock()
				return
			}
			if err != nil {
				e.Counters.ReadErrors.Add(1)
				backoff = min(max(2*backoff, time.Millisecond), 100*time.Millisecond)
				time.Sleep(backoff)
				continue
			}
			backoff = 0
			b := from.Addr().As16() // udp4 sockets: the v4 address is the last 4 bytes
			src := Addr{IP: MakeIP(b[12], b[13], b[14], b[15]), Port: from.Port()}
			if group != 0 && src.IP == e.ip && src.Port == port {
				continue // our own multicast loopback
			}
			e.Counters.RxPackets.Add(1)
			e.Counters.RxBytes.Add(uint64(n))
			ev := event{ep: e, port: port, src: src}
			if n <= rxPooled {
				ev.rx = rxPool.Get().(*[rxPooled]byte)
				ev.data = ev.rx[:n]
			} else {
				ev.data = make([]byte, n)
			}
			copy(ev.data, buf)
			if !e.rt.post(ev) {
				e.Counters.DropClosed.Add(1)
				if ev.rx != nil {
					rxPool.Put(ev.rx)
				}
			}
		}
	}()
}

// deliver runs a received packet's handler on the event loop.
func (e *UDPEndpoint) deliver(port uint16, src Addr, data []byte) {
	e.mu.Lock()
	h := e.handlers[port]
	e.mu.Unlock()
	if h == nil {
		e.Counters.DropUnbound.Add(1)
		return
	}
	h(src, Addr{IP: e.ip, Port: port}, data)
}

// JoinGroup implements Endpoint: listens on the multicast group address.
// The socket is bound to the group address itself (not the wildcard) so
// that only datagrams sent to this group reach it — endpoints on other
// emulated segments sharing the port stay invisible.
func (e *UDPEndpoint) JoinGroup(group IP, port uint16) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := Addr{IP: group, Port: port}
	if _, ok := e.msocks[key]; ok {
		return
	}
	gip := net.IPv4(byte(group>>24), byte(group>>16), byte(group>>8), byte(group))
	if conn, err := listenUDPReuse(gip, int(port)); err == nil {
		if joinGroup4(conn, gip, ifaceAddr4(e.ifi)) == nil {
			e.msocks[key] = conn
			e.readLoop(conn, port, group)
			return
		}
		conn.Close()
	}
	// Portable fallback: wildcard-bound group socket (no per-group
	// destination filtering, fine when every segment is a real network).
	conn, err := net.ListenMulticastUDP("udp4", e.ifi, &net.UDPAddr{IP: gip, Port: int(port)})
	if err != nil {
		return
	}
	e.msocks[key] = conn
	e.readLoop(conn, port, group)
}

// ifaceAddr4 returns the first IPv4 address assigned to ifi (the address
// IP_ADD_MEMBERSHIP identifies the interface by), or nil.
func ifaceAddr4(ifi *net.Interface) net.IP {
	if ifi == nil {
		return nil
	}
	addrs, err := ifi.Addrs()
	if err != nil {
		return nil
	}
	for _, a := range addrs {
		if ipn, ok := a.(*net.IPNet); ok {
			if v4 := ipn.IP.To4(); v4 != nil {
				return v4
			}
		}
	}
	return nil
}

// LeaveGroup implements GroupLeaver: it closes the (group, port)
// membership socket, so packets to that group stop arriving. Unknown
// memberships are ignored.
func (e *UDPEndpoint) LeaveGroup(group IP, port uint16) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := Addr{IP: group, Port: port}
	if c, ok := e.msocks[key]; ok {
		c.Close()
		delete(e.msocks, key)
	}
}

func (e *UDPEndpoint) conn(srcPort uint16) (*net.UDPConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("transport: endpoint closed")
	}
	if c, ok := e.socks[srcPort]; ok {
		return c, nil
	}
	conn, err := listenUDPReuse(e.local, int(srcPort))
	if err != nil {
		return nil, err
	}
	_ = setMulticastInterface(conn, e.local)
	e.socks[srcPort] = conn
	e.readLoop(conn, srcPort, 0)
	return conn, nil
}

// Unicast implements Endpoint.
func (e *UDPEndpoint) Unicast(srcPort uint16, dst Addr, payload []byte) error {
	conn, err := e.conn(srcPort)
	if err == nil {
		ip := [4]byte{byte(dst.IP >> 24), byte(dst.IP >> 16), byte(dst.IP >> 8), byte(dst.IP)}
		_, err = conn.WriteToUDPAddrPort(payload, netip.AddrPortFrom(netip.AddrFrom4(ip), dst.Port))
	}
	if err != nil {
		e.Counters.TxErrors.Add(1)
	}
	return err
}

// Multicast implements Endpoint.
func (e *UDPEndpoint) Multicast(srcPort uint16, group Addr, payload []byte) error {
	return e.Unicast(srcPort, group, payload)
}

// Loopback implements Endpoint: the adapter passes if its interface is up
// and no socket's read loop has died under it.
func (e *UDPEndpoint) Loopback() bool {
	if e.Counters.DeadSockets.Load() > 0 {
		return false
	}
	if e.ifi == nil {
		// Re-resolve: the interface may have come up since creation.
		e.ifi = interfaceFor(e.local)
		if e.ifi == nil {
			return false
		}
	}
	ifi, err := net.InterfaceByIndex(e.ifi.Index)
	if err != nil {
		return false
	}
	return ifi.Flags&net.FlagUp != 0
}

// Close shuts every socket.
func (e *UDPEndpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for _, c := range e.socks { // order-free: closing a socket touches no other
		c.Close()
	}
	for _, c := range e.msocks { // order-free: closing a socket touches no other
		c.Close()
	}
	e.socks = map[uint16]*net.UDPConn{}
	e.msocks = map[Addr]*net.UDPConn{}
}
