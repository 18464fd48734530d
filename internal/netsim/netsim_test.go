package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

func ip(d byte) transport.IP { return transport.MakeIP(10, 0, 0, d) }

type fixture struct {
	sched *sim.Scheduler
	res   *StaticResolver
	net   *Network
}

func newFixture(seed int64) *fixture {
	s := sim.NewScheduler(seed)
	r := NewStaticResolver()
	return &fixture{sched: s, res: r, net: New(s, r)}
}

func (f *fixture) adapter(d byte, seg string) *Adapter {
	a := f.net.AddAdapter(ip(d), "node")
	f.res.Attach(ip(d), seg)
	return a
}

func TestUnicastSameSegment(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	var got []byte
	var gotSrc transport.Addr
	b.Bind(100, func(src, dst transport.Addr, p []byte) {
		gotSrc = src
		got = append([]byte(nil), p...)
	})
	if err := a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if string(got) != "hi" {
		t.Fatalf("payload = %q, want hi", got)
	}
	if gotSrc.IP != a.LocalIP() || gotSrc.Port != 100 {
		t.Fatalf("src = %v", gotSrc)
	}
}

func TestUnicastCrossSegmentVanishes(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s2")
	delivered := false
	b.Bind(100, func(_, _ transport.Addr, _ []byte) { delivered = true })
	if err := a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("x")); err != nil {
		t.Fatalf("cross-segment send should not error locally: %v", err)
	}
	f.sched.Run()
	if delivered {
		t.Fatal("packet crossed segments; GulfStream assumes no inter-segment routing")
	}
}

func TestUnicastUnboundPortDropped(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	_ = b
	if err := a.Unicast(100, transport.Addr{IP: ip(2), Port: 999}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.sched.Run() // must not panic
}

func TestMulticastScopedToSegmentAndGroup(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	c := f.adapter(3, "s1") // same segment, not joined
	d := f.adapter(4, "s2") // other segment, joined
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	recv := map[transport.IP]int{}
	for _, ad := range []*Adapter{a, b, c, d} {
		ad := ad
		ad.Bind(200, func(_, _ transport.Addr, _ []byte) { recv[ad.LocalIP()]++ })
	}
	a.JoinGroup(transport.BeaconGroup, 200)
	b.JoinGroup(transport.BeaconGroup, 200)
	d.JoinGroup(transport.BeaconGroup, 200)
	if err := a.Multicast(200, group, []byte("beacon")); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if recv[b.LocalIP()] != 1 {
		t.Error("joined same-segment adapter missed multicast")
	}
	if recv[a.LocalIP()] != 0 {
		t.Error("sender received its own multicast")
	}
	if recv[c.LocalIP()] != 0 {
		t.Error("non-member received multicast")
	}
	if recv[d.LocalIP()] != 0 {
		t.Error("multicast leaked across segments")
	}
}

func TestLeaveGroup(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	n := 0
	b.Bind(200, func(_, _ transport.Addr, _ []byte) { n++ })
	b.JoinGroup(transport.BeaconGroup, 200)
	a.Multicast(200, group, []byte("1"))
	f.sched.Run()
	b.LeaveGroup(transport.BeaconGroup, 200)
	a.Multicast(200, group, []byte("2"))
	f.sched.Run()
	if n != 1 {
		t.Fatalf("received %d, want 1", n)
	}
}

func TestFailureModes(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	count := 0
	b.Bind(100, func(_, _ transport.Addr, _ []byte) { count++ })
	acount := 0
	a.Bind(100, func(_, _ transport.Addr, _ []byte) { acount++ })
	dst := transport.Addr{IP: b.LocalIP(), Port: 100}
	back := transport.Addr{IP: a.LocalIP(), Port: 100}

	// FailStop: cannot send.
	a.SetMode(FailStop)
	if err := a.Unicast(100, dst, []byte("x")); err != ErrAdapterDown {
		t.Fatalf("FailStop send err = %v, want ErrAdapterDown", err)
	}
	// FailRecv: can send, cannot receive.
	a.SetMode(FailRecv)
	if err := a.Unicast(100, dst, []byte("x")); err != nil {
		t.Fatalf("FailRecv should still send: %v", err)
	}
	b.Unicast(100, back, []byte("y"))
	f.sched.Run()
	if count != 1 {
		t.Fatalf("b received %d, want 1", count)
	}
	if acount != 0 {
		t.Fatal("FailRecv adapter received a packet")
	}
	// FailSend: can receive, cannot send usefully... sends error.
	a.SetMode(FailSend)
	if err := a.Unicast(100, dst, []byte("x")); err != ErrAdapterDown {
		t.Fatalf("FailSend send err = %v, want ErrAdapterDown", err)
	}
	b.Unicast(100, back, []byte("y"))
	f.sched.Run()
	if acount != 1 {
		t.Fatalf("FailSend adapter should still receive; got %d", acount)
	}
	// Healthy again.
	a.SetMode(Healthy)
	if !a.Loopback() {
		t.Fatal("healthy attached adapter must pass loopback")
	}
}

func TestLoopbackDetectsPartialFailure(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	for _, m := range []FailureMode{FailStop, FailRecv, FailSend} {
		a.SetMode(m)
		if a.Loopback() {
			t.Errorf("loopback passed under %v", m)
		}
	}
	a.SetMode(Healthy)
	f.res.Detach(a.LocalIP())
	if a.Loopback() {
		t.Error("loopback passed with no segment attachment")
	}
}

func TestDetachedSenderErrors(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	f.res.Detach(a.LocalIP())
	if err := a.Unicast(100, transport.Addr{IP: ip(2), Port: 100}, nil); err != ErrNoSegment {
		t.Fatalf("err = %v, want ErrNoSegment", err)
	}
}

func TestLossModel(t *testing.T) {
	f := newFixture(7)
	f.net.SetDefaultProfile(LinkProfile{Loss: 0.5, Latency: time.Millisecond})
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	n := 0
	b.Bind(100, func(_, _ transport.Addr, _ []byte) { n++ })
	const total = 2000
	for i := 0; i < total; i++ {
		a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("x"))
	}
	f.sched.Run()
	if n < total*40/100 || n > total*60/100 {
		t.Fatalf("with 50%% loss received %d of %d", n, total)
	}
}

func TestLatencyAndJitterBounds(t *testing.T) {
	f := newFixture(3)
	f.net.SetSegmentProfile("s1", LinkProfile{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	var arrivals []time.Duration
	b.Bind(100, func(_, _ transport.Addr, _ []byte) { arrivals = append(arrivals, f.sched.Now()) })
	for i := 0; i < 100; i++ {
		a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("x"))
	}
	f.sched.Run()
	if len(arrivals) != 100 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	for _, at := range arrivals {
		if at < 10*time.Millisecond || at >= 15*time.Millisecond {
			t.Fatalf("arrival at %v outside [10ms,15ms)", at)
		}
	}
}

func TestSegmentMoveViaResolver(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	c := f.adapter(3, "s2")
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	for _, ad := range []*Adapter{a, b, c} {
		ad.JoinGroup(transport.BeaconGroup, 200)
	}
	recv := map[transport.IP]int{}
	for _, ad := range []*Adapter{b, c} {
		ad := ad
		ad.Bind(200, func(_, _ transport.Addr, _ []byte) { recv[ad.LocalIP()]++ })
	}
	a.Multicast(200, group, []byte("1"))
	f.sched.Run()
	// Move a to s2 — the VLAN-rewrite path.
	f.res.Attach(a.LocalIP(), "s2")
	a.Multicast(200, group, []byte("2"))
	f.sched.Run()
	if recv[b.LocalIP()] != 1 {
		t.Errorf("b received %d, want 1 (only before the move)", recv[b.LocalIP()])
	}
	if recv[c.LocalIP()] != 1 {
		t.Errorf("c received %d, want 1 (only after the move)", recv[c.LocalIP()])
	}
}

func TestTapObservesTraffic(t *testing.T) {
	f := newFixture(9)
	f.net.SetDefaultProfile(LinkProfile{Loss: 1.0})
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	b.Bind(100, func(_, _ transport.Addr, _ []byte) {})
	b.JoinGroup(transport.BeaconGroup, 200)
	var traces []Trace
	f.net.Tap(func(tr Trace) { traces = append(traces, tr) })
	a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("abc"))
	a.Multicast(200, transport.Addr{IP: transport.BeaconGroup, Port: 200}, []byte("de"))
	f.sched.Run()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[0].Multicast || traces[0].Bytes != 3 || traces[0].Dropped != 1 || traces[0].Receivers != 0 {
		t.Errorf("unicast trace = %+v", traces[0])
	}
	if !traces[1].Multicast || traces[1].Bytes != 2 || traces[1].Dropped != 1 {
		t.Errorf("multicast trace = %+v", traces[1])
	}
}

func TestPayloadIsolation(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	b := f.adapter(2, "s1")
	var got []byte
	b.Bind(100, func(_, _ transport.Addr, p []byte) { got = p })
	buf := []byte("mutate-me")
	a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, buf)
	copy(buf, "XXXXXXXXX") // sender reuses its buffer before delivery
	f.sched.Run()
	if string(got) != "mutate-me" {
		t.Fatalf("delivered payload was aliased to the sender's buffer: %q", got)
	}
}

func TestDuplicateAdapterPanics(t *testing.T) {
	f := newFixture(1)
	f.adapter(1, "s1")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate adapter")
		}
	}()
	f.net.AddAdapter(ip(1), "other")
}

func TestAdaptersSorted(t *testing.T) {
	f := newFixture(1)
	f.adapter(9, "s1")
	f.adapter(1, "s1")
	f.adapter(5, "s1")
	as := f.net.Adapters()
	if len(as) != 3 {
		t.Fatalf("len = %d", len(as))
	}
	for i := 1; i < len(as); i++ {
		if as[i-1].LocalIP() >= as[i].LocalIP() {
			t.Fatal("Adapters() not sorted ascending")
		}
	}
}

func TestSegmentMembers(t *testing.T) {
	f := newFixture(1)
	f.adapter(1, "s1")
	f.adapter(2, "s2")
	f.adapter(3, "s1")
	got := f.net.SegmentMembers("s1")
	if len(got) != 2 || got[0] != ip(1) || got[1] != ip(3) {
		t.Fatalf("SegmentMembers(s1) = %v", got)
	}
	if len(f.net.SegmentMembers("nosuch")) != 0 {
		t.Fatal("unknown segment should have no members")
	}
}

func BenchmarkMulticastFanout64(b *testing.B) {
	f := newFixture(1)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	var first *Adapter
	for i := 0; i < 64; i++ {
		a := f.net.AddAdapter(transport.MakeIP(10, 0, byte(i/250), byte(i%250+1)), "n")
		f.res.Attach(a.LocalIP(), "s1")
		a.JoinGroup(transport.BeaconGroup, 200)
		a.Bind(200, func(_, _ transport.Addr, _ []byte) {})
		if first == nil {
			first = a
		}
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first.Multicast(200, group, payload)
		f.sched.Run()
	}
}

// Detach removes an adapter's connectivity entirely.
func (r *StaticResolver) Detach(ip transport.IP) {
	delete(r.seg, ip)
	r.version++
}
