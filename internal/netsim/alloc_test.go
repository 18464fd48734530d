package netsim

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// Allocation regression guards for the single-copy delivery plane: in the
// steady state a transmission pays exactly one payload copy into a pooled
// record shared by all receivers, and the record's arrival list plus the
// one scheduler event carrying it are pooled too — so the whole
// send-to-handler round trip allocates nothing.

// fanoutFixture builds n adapters on one segment, all subscribed to the
// beacon group on port 200 with a no-op handler.
func fanoutFixture(n int) (*fixture, *Adapter) {
	f := newFixture(1)
	var first *Adapter
	for i := 0; i < n; i++ {
		a := f.net.AddAdapter(transport.MakeIP(10, 0, byte(i/250), byte(i%250+1)), "n")
		f.res.Attach(a.LocalIP(), "s1")
		a.JoinGroup(transport.BeaconGroup, 200)
		a.Bind(200, func(_, _ transport.Addr, _ []byte) {})
		if first == nil {
			first = a
		}
	}
	return f, first
}

// TestAllocUnicastSteadyState: a delivered unicast round trip allocates
// nothing once the pools are warm.
func TestAllocUnicastSteadyState(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	b.Bind(100, func(_, _ transport.Addr, _ []byte) {})
	dst := transport.Addr{IP: b.LocalIP(), Port: 100}
	payload := make([]byte, 48)
	// Warm the transmission and scheduler-event pools.
	for i := 0; i < 4; i++ {
		if err := a.Unicast(100, dst, payload); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
	}
	got := testing.AllocsPerRun(100, func() {
		if err := a.Unicast(100, dst, payload); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
	})
	if got != 0 {
		t.Errorf("unicast round trip: %.1f allocs/op, want 0", got)
	}
}

// TestAllocMulticastSingleCopy: a 64-receiver multicast performs at most
// one payload-buffer fill per transmission — receivers share the copy —
// and in the steady state the whole fan-out allocates nothing.
func TestAllocMulticastSingleCopy(t *testing.T) {
	f, first := fanoutFixture(64)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	payload := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if err := first.Multicast(200, group, payload); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
	}
	got := testing.AllocsPerRun(50, func() {
		if err := first.Multicast(200, group, payload); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
	})
	if got != 0 {
		t.Errorf("64-receiver multicast round trip: %.1f allocs/op, want 0 (single shared copy)", got)
	}
}

// TestMulticastSharedBuffer verifies receivers genuinely alias one buffer:
// every handler sees the same backing array for the delivered payload.
func TestMulticastSharedBuffer(t *testing.T) {
	f := newFixture(1)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	sender := f.adapter(1, "s1")
	var bufs []*byte
	for i := byte(2); i < 6; i++ {
		r := f.adapter(i, "s1")
		r.JoinGroup(transport.BeaconGroup, 200)
		r.Bind(200, func(_, _ transport.Addr, p []byte) { bufs = append(bufs, &p[0]) })
	}
	if err := sender.Multicast(200, group, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if len(bufs) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(bufs))
	}
	for _, p := range bufs[1:] {
		if p != bufs[0] {
			t.Fatal("receivers got distinct payload copies; want one shared buffer")
		}
	}
}

func BenchmarkUnicastRoundTrip(b *testing.B) {
	f := newFixture(1)
	src := f.adapter(1, "s1")
	rcv := f.adapter(2, "s1")
	rcv.Bind(100, func(_, _ transport.Addr, _ []byte) {})
	dst := transport.Addr{IP: rcv.LocalIP(), Port: 100}
	payload := make([]byte, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Unicast(100, dst, payload)
		f.sched.Run()
	}
}

func BenchmarkMulticastFanout256(b *testing.B) {
	f, first := fanoutFixture(256)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first.Multicast(200, group, payload)
		f.sched.Run()
	}
}

// TestAllocShardedCrossDelivery extends the steady-state guarantee to the
// cross-shard path: bundle posting, barrier expansion into per-bundle
// arrival lists and the arrivals themselves must all recycle — zero
// allocs/op once the bundle pools, merge scratch and per-lane free lists
// are warm.
func TestAllocShardedCrossDelivery(t *testing.T) {
	p := LinkProfile{Latency: 2 * time.Millisecond, Spread: 300 * time.Microsecond, RecvFilter: true}
	f := newShardFixture(1, 4, 8, time.Millisecond, p)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	for _, a := range f.adapters {
		a.JoinGroup(group.IP, group.Port)
		a.Bind(200, func(_, _ transport.Addr, _ []byte) {})
		a.Bind(100, func(_, _ transport.Addr, _ []byte) {})
	}
	src, cross := f.adapters[0], f.adapters[1]
	if src.ln == cross.ln {
		t.Fatal("fixture should split hosts across lanes")
	}
	dst := transport.Addr{IP: cross.LocalIP(), Port: 100}
	payload := make([]byte, 48)
	send := func() {
		src.Unicast(100, dst, payload)     // cross-shard unicast
		src.Multicast(200, group, payload) // fan-out crossing all lanes
	}
	step := func() {
		f.scheds[0].Schedule(time.Millisecond, send)
		f.sh.RunFor(5 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		step() // warm every pool on every lane
	}
	got := testing.AllocsPerRun(100, step)
	if got != 0 {
		t.Errorf("cross-shard send+exchange+deliver: %.1f allocs/op, want 0", got)
	}
}

// TestAllocMulticastArrivalList: a 256-adapter segment's multicast is one
// transmission with one arrival list — every receiver is a pending event
// (Pending rises by 255; that the list takes a single heap entry is pinned
// where the heap is visible, in internal/sim) and, once the transmission
// pool, the list and the sort scratch are warm, neither the send nor the
// 255 deliveries allocate.
func TestAllocMulticastArrivalList(t *testing.T) {
	f, first := fanoutFixture(256)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	payload := make([]byte, 64)
	round := func() {
		before := f.sched.Pending()
		if err := first.Multicast(200, group, payload); err != nil {
			t.Fatal(err)
		}
		if got := f.sched.Pending() - before; got != 255 {
			t.Fatalf("multicast to 255 receivers raised Pending by %d", got)
		}
		fired := f.sched.Fired()
		f.sched.Run()
		if got := f.sched.Fired() - fired; got != 255 {
			t.Fatalf("255 deliveries fired %d events", got)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("256-adapter multicast round trip: %.1f allocs/op, want 0", got)
	}
	if n := len(f.net.lanes[0].freeTx); n != 1 {
		t.Errorf("%d pooled transmissions after serial sends, want the one being reused", n)
	}
}
