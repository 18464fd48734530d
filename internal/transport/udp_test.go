package transport

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// loopbackAvailable checks we can bind UDP on 127.0.0.1 in this sandbox.
func loopbackAvailable(t *testing.T) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		t.Skipf("no loopback UDP in this environment: %v", err)
	}
	c.Close()
}

func TestRuntimeClock(t *testing.T) {
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	if rt.Now() < 0 {
		t.Fatal("negative Now")
	}
	fired := make(chan struct{})
	rt.AfterFunc(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestRuntimeTimerStop(t *testing.T) {
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	fired := make(chan struct{}, 1)
	tm := rt.AfterFunc(50*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop returned false before firing")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestRuntimeSerializesCallbacks(t *testing.T) {
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	counter := 0
	done := make(chan int)
	// 100 concurrent posts must execute serially (no data race on counter,
	// which go test -race would catch).
	for i := 0; i < 100; i++ {
		rt.Post(func() {
			counter++
			if counter == 100 {
				done <- counter
			}
		})
	}
	select {
	case n := <-done:
		if n != 100 {
			t.Fatalf("counter = %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callbacks never drained")
	}
}

func TestUDPUnicastLoopback(t *testing.T) {
	loopbackAvailable(t)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()

	lo := MakeIP(127, 0, 0, 1)
	a, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	got := make(chan []byte, 1)
	// Use high ports to avoid clashes with anything local.
	a.Bind(47401, func(src, dst Addr, payload []byte) {
		got <- append([]byte(nil), payload...)
	})
	if err := a.Unicast(47402, Addr{IP: lo, Port: 47401}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "hello" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestUDPLoopbackSelfTest(t *testing.T) {
	loopbackAvailable(t)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	lo := MakeIP(127, 0, 0, 1)
	e, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Loopback() {
		t.Skip("loopback interface not detectable in this environment")
	}
}

func TestUDPBindNilUnbinds(t *testing.T) {
	loopbackAvailable(t)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	lo := MakeIP(127, 0, 0, 1)
	a, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got := make(chan struct{}, 4)
	a.Bind(47411, func(_, _ Addr, _ []byte) { got <- struct{}{} })
	a.Bind(47411, nil) // unbind closes the socket
	b, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_ = b.Unicast(47412, Addr{IP: lo, Port: 47411}, []byte("x"))
	select {
	case <-got:
		t.Fatal("unbound handler fired")
	case <-time.After(300 * time.Millisecond):
	}
}

func TestUDPClosedEndpointErrors(t *testing.T) {
	loopbackAvailable(t)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	lo := MakeIP(127, 0, 0, 1)
	e, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Unicast(47421, Addr{IP: lo, Port: 47422}, []byte("x")); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
}

// TestUDPReadLoopDeathFailsLoopback closes a bound socket underneath its
// endpoint: the read loop ends with the socket still bound, which must
// turn the adapter's loopback self-test false. Unbinding and closing on
// purpose must not raise that alarm.
func TestUDPReadLoopDeathFailsLoopback(t *testing.T) {
	loopbackAvailable(t)
	lo := MakeIP(127, 0, 0, 1)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	e, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Loopback() {
		t.Skip("loopback interface not detectable in this environment")
	}
	e.Bind(47461, func(_, _ Addr, _ []byte) {})
	e.mu.Lock()
	e.socks[47461].Close()
	e.mu.Unlock()
	for deadline := time.Now().Add(2 * time.Second); e.Loopback(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Loopback still healthy after the bound socket's read loop died")
		}
	}
	if got := e.Counters.DeadSockets.Load(); got != 1 {
		t.Fatalf("DeadSockets = %d, want 1", got)
	}

	// Unbind, then Close: Runtime.Close waits for every read loop, so the
	// counters are final once it returns.
	rt2 := NewRuntime()
	rt2.RunAsync()
	f, err := NewUDPEndpoint(rt2, lo)
	if err != nil {
		t.Fatal(err)
	}
	f.Bind(47462, func(_, _ Addr, _ []byte) {})
	f.Bind(47463, func(_, _ Addr, _ []byte) {})
	f.Bind(47462, nil)
	if !f.Loopback() {
		t.Fatal("Loopback failed after a deliberate unbind")
	}
	f.Close()
	rt2.Close()
	if got := f.Counters.DeadSockets.Load(); got != 0 || !f.Loopback() {
		t.Fatalf("after Bind(nil) and Close: DeadSockets = %d, Loopback = %v; want 0, true", got, f.Loopback())
	}
}

// TestUDPUnboundAndReadCounters checks the receive counters: a datagram on
// a socket opened only for sending is read, counted, and dropped as
// unbound.
func TestUDPUnboundAndReadCounters(t *testing.T) {
	loopbackAvailable(t)
	lo := MakeIP(127, 0, 0, 1)
	rt := NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	e, err := NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Unicast(47471, Addr{IP: lo, Port: 47471}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); e.Counters.DropUnbound.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("unbound drop never counted")
		}
	}
	c := &e.Counters
	if c.RxPackets.Load() != 1 || c.RxBytes.Load() != 3 || c.ReadErrors.Load() != 0 || c.TxErrors.Load() != 0 {
		t.Fatalf("rx %d/%dB, read errors %d, tx errors %d; want 1/3B, 0, 0",
			c.RxPackets.Load(), c.RxBytes.Load(), c.ReadErrors.Load(), c.TxErrors.Load())
	}
	e.Close()
	if e.Unicast(47471, Addr{IP: lo, Port: 47471}, []byte("x")) == nil || c.TxErrors.Load() != 1 {
		t.Fatalf("send on a closed endpoint: TxErrors = %d, want 1", c.TxErrors.Load())
	}
}

// TestUDPRoundTripAllocs holds the real-socket path to its budget: a
// heartbeat-sized round trip between two runtimes over loopback UDP
// allocates nothing once warm (the bound of 1 leaves room for the Go
// runtime's own background allocations). It needs 127.0.0.2, which the
// daemon end-to-end tests rely on too, and fails rather than skips
// without it.
func TestUDPRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const port, prime, trips = 47481, 200, 2000
	ipA, ipB := MakeIP(127, 0, 0, 1), MakeIP(127, 0, 0, 2)
	for _, ip := range []net.IP{net.IPv4(127, 0, 0, 1), net.IPv4(127, 0, 0, 2)} {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: ip})
		if err != nil {
			t.Fatalf("cannot bind %v: %v", ip, err)
		}
		c.Close()
	}
	rtA, rtB := NewRuntime(), NewRuntime()
	rtA.RunAsync()
	rtB.RunAsync()
	defer rtB.Close()
	defer rtA.Close()
	a, err := NewUDPEndpoint(rtA, ipA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPEndpoint(rtB, ipB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	heartbeat := make([]byte, 27) // a wire.Heartbeat's size
	toB := Addr{IP: ipB, Port: port}
	b.Bind(port, func(src, _ Addr, p []byte) { _ = b.Unicast(port, src, p) })
	left := 0 // touched on A's loop only
	done := make(chan struct{}, 1)
	a.Bind(port, func(_, _ Addr, _ []byte) {
		if left--; left == 0 {
			done <- struct{}{}
			return
		}
		_ = a.Unicast(port, toB, heartbeat)
	})
	roundTrips := func(n int) {
		rtA.Post(func() {
			left = n
			_ = a.Unicast(port, toB, heartbeat)
		})
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%d round trips stalled (a datagram lost on loopback?)", n)
		}
	}
	roundTrips(prime)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(trips)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / trips; per > 1 {
		t.Fatalf("%.2f allocs per round trip, want <= 1", per)
	}
}
