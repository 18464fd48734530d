package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// The unicast fan (Adapter.UnicastFan) stands in for a loop of Unicast
// calls. These tests hold it to that: the same deliveries, events, tap
// records and random draws, on one lane and across shards, with one
// payload copy for all receivers.

// fanLog records everything a run shows from outside: each delivery
// (instant, receiver, src, dst, payload) and each tap record.
type fanLog struct {
	deliveries []string
	taps       []string
}

func (l *fanLog) tap(tr Trace) {
	tr.Payload, tr.Bytes = nil, len(tr.Payload)
	l.taps = append(l.taps, fmt.Sprintf("%+v", tr))
}

// bindLogged binds port on a so every delivery is logged with now's
// instant; a receiver on the member port answers the sender on another
// port, so later draws and sequence numbers depend on the fan's.
func (l *fanLog) bindLogged(a *Adapter, now func() time.Duration) {
	for _, port := range []uint16{transport.PortMember, 9} {
		a.Bind(port, func(src, dst transport.Addr, p []byte) {
			l.deliveries = append(l.deliveries, fmt.Sprintf("%v %v %v->%v %q", now(), a.LocalIP(), src, dst, p))
			if dst.Port == transport.PortMember {
				_ = a.Unicast(9, transport.Addr{IP: src.IP, Port: 9}, []byte("ack"))
			}
		})
	}
}

// fanDests lists a fan's destinations: segment members in a scrambled
// order with one repeated, the sender itself, an adapter on another
// segment and an address nobody holds.
func fanDests() []transport.IP {
	return []transport.IP{ip(7), ip(3), ip(2), ip(12), ip(1), ip(9), ip(3), ip(40), ip(21), ip(5), ip(30)}
}

// sendEach is the reference the fan must match: one Unicast per
// destination.
func sendEach(a *Adapter, dsts []transport.IP, payload []byte) {
	for _, d := range dsts {
		_ = a.Unicast(transport.PortMember, transport.Addr{IP: d, Port: transport.PortMember}, payload)
	}
}

func sendFan(a *Adapter, dsts []transport.IP, payload []byte) {
	_ = a.UnicastFan(transport.PortMember, transport.PortMember, dsts, payload)
}

// TestFanMatchesUnicasts: on a lossy, jittery segment, rounds of fans
// produce the same delivery log, Fired and Pending counts, tap records and
// next random draw as the same rounds sent as one Unicast per destination.
func TestFanMatchesUnicasts(t *testing.T) {
	run := func(send func(*Adapter, []transport.IP, []byte)) (fanLog, []int, uint64, int64) {
		f := newFixture(11)
		f.net.SetDefaultProfile(LinkProfile{Loss: 0.1, Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
		var log fanLog
		f.net.Tap(log.tap)
		var as []*Adapter
		for d := byte(1); d <= 30; d++ {
			seg := "s1"
			if d == 30 {
				seg = "s2"
			}
			a := f.adapter(d, seg)
			log.bindLogged(a, f.sched.Now)
			as = append(as, a)
		}
		var pending []int
		for round := 0; round < 20; round++ {
			f.sched.At(time.Duration(round)*150*time.Microsecond, func() {
				send(as[0], fanDests(), []byte(fmt.Sprintf("round %d", round)))
				pending = append(pending, f.sched.Pending())
			})
		}
		f.sched.Run()
		return log, pending, f.sched.Fired(), f.sched.Rand().Int63()
	}
	wantLog, wantPending, wantFired, wantDraw := run(sendEach)
	gotLog, gotPending, gotFired, gotDraw := run(sendFan)
	if len(wantLog.deliveries) < 100 {
		t.Fatalf("reference run delivered only %d packets", len(wantLog.deliveries))
	}
	if !slices.Equal(gotLog.deliveries, wantLog.deliveries) {
		t.Errorf("delivery logs differ:\n%s", firstDiff(gotLog.deliveries, wantLog.deliveries))
	}
	if !slices.Equal(gotLog.taps, wantLog.taps) {
		t.Errorf("tap records differ:\n%s", firstDiff(gotLog.taps, wantLog.taps))
	}
	if !slices.Equal(gotPending, wantPending) || gotFired != wantFired {
		t.Errorf("pending %v fired %d, want %v fired %d", gotPending, gotFired, wantPending, wantFired)
	}
	if gotDraw != wantDraw {
		t.Errorf("next random draw %d, want %d: the fan consumed the RNG differently", gotDraw, wantDraw)
	}
}

// TestShardedFanMatchesUnicasts: the same on a two-shard network, where
// half the destinations live on the other lane and go through the barrier
// as one bundle per send instead of one per receiver.
func TestShardedFanMatchesUnicasts(t *testing.T) {
	p := LinkProfile{Loss: 0.1, Latency: 2 * time.Millisecond, Jitter: 300 * time.Microsecond, Spread: 200 * time.Microsecond}
	run := func(send func(*Adapter, []transport.IP, []byte)) (fanLog, []int, uint64) {
		f := newShardFixture(3, 2, 24, time.Millisecond, p)
		var log fanLog
		f.net.Tap(log.tap)
		for i, a := range f.adapters {
			log.bindLogged(a, f.scheds[i].Now)
		}
		src := f.adapters[0]
		var dsts []transport.IP
		for _, d := range fanDests() {
			if d <= ip(24) {
				dsts = append(dsts, d)
			}
		}
		if f.adapters[1].ln == src.ln {
			t.Fatal("fixture should put the sender and host 2 on different lanes")
		}
		var pending []int
		for round := 0; round < 10; round++ {
			f.scheds[0].At(time.Duration(round)*700*time.Microsecond, func() {
				send(src, dsts, []byte(fmt.Sprintf("round %d", round)))
				pending = append(pending, f.scheds[0].Pending())
			})
		}
		f.sh.RunFor(time.Second)
		return log, pending, f.sh.Fired()
	}
	wantLog, wantPending, wantFired := run(sendEach)
	gotLog, gotPending, gotFired := run(sendFan)
	if len(wantLog.deliveries) < 50 {
		t.Fatalf("reference run delivered only %d packets", len(wantLog.deliveries))
	}
	if !slices.Equal(gotLog.deliveries, wantLog.deliveries) {
		t.Errorf("delivery logs differ:\n%s", firstDiff(gotLog.deliveries, wantLog.deliveries))
	}
	if !slices.Equal(gotLog.taps, wantLog.taps) {
		t.Errorf("tap records differ:\n%s", firstDiff(gotLog.taps, wantLog.taps))
	}
	if !slices.Equal(gotPending, wantPending) || gotFired != wantFired {
		t.Errorf("pending %v fired %d, want %v fired %d", gotPending, gotFired, wantPending, wantFired)
	}
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d: got  %s\n         want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(got), len(want))
}

// TestAllocFanSingleCopy: a 100-destination fan is one transmission — every
// receiver's handler sees the same payload buffer, one pooled transmission
// serves serial sends — and once the pools are warm the fan and its 100
// deliveries allocate nothing.
func TestAllocFanSingleCopy(t *testing.T) {
	f, first := fanoutFixture(101)
	var dsts []transport.IP
	var bufs []*byte
	for _, a := range f.net.Adapters() {
		if a != first {
			dsts = append(dsts, a.LocalIP())
			a.Bind(transport.PortMember, func(_, _ transport.Addr, p []byte) { bufs = append(bufs, &p[0]) })
		}
	}
	payload := make([]byte, 600)
	round := func() {
		bufs = bufs[:0]
		if err := first.UnicastFan(transport.PortMember, transport.PortMember, dsts, payload); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if len(bufs) != 100 {
		t.Fatalf("%d deliveries, want 100", len(bufs))
	}
	for _, b := range bufs[1:] {
		if b != bufs[0] {
			t.Fatal("fan receivers got distinct payload copies; want one shared buffer")
		}
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("100-destination fan round trip: %.1f allocs/op, want 0", got)
	}
	if n := len(f.net.lanes[0].freeTx); n != 1 {
		t.Errorf("%d pooled transmissions after serial fans, want the one being reused", n)
	}
}

// TestInt63nMatchesRand: the jitter draw with its rejection bound hoisted
// returns what rand.Int63n returns and leaves the source in the same
// state, for powers of two, small and huge moduli and the largest one.
func TestInt63nMatchesRand(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 300_000, 1 << 20, 1<<40 + 7, math.MaxInt64} {
		var j int63n
		for seed := int64(1); seed <= 4; seed++ {
			want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				if w, g := want.Int63n(n), j.draw(got, n); w != g {
					t.Fatalf("n=%d seed %d draw %d: got %d, want %d", n, seed, k, g, w)
				}
			}
			if want.Int63() != got.Int63() {
				t.Fatalf("n=%d seed %d: source state differs after the draws", n, seed)
			}
		}
	}
}

// TestFanDownAdapter: a fan from an adapter that cannot send fails as each
// Unicast would, before any tap record or draw.
func TestFanDownAdapter(t *testing.T) {
	f := newFixture(1)
	a := f.adapter(1, "s1")
	f.adapter(2, "s1")
	taps := 0
	f.net.Tap(func(Trace) { taps++ })
	a.SetMode(FailSend)
	if err := a.UnicastFan(1, 1, []transport.IP{ip(2)}, nil); err != ErrAdapterDown {
		t.Fatalf("fan from a fail-send adapter: %v, want ErrAdapterDown", err)
	}
	detached := f.net.AddAdapter(ip(3), "node") // never attached to a segment
	if err := detached.UnicastFan(1, 1, []transport.IP{ip(2)}, nil); err != ErrNoSegment {
		t.Fatalf("fan from a detached adapter: %v, want ErrNoSegment", err)
	}
	if taps != 0 || f.sched.Pending() != 0 {
		t.Fatalf("failed fans left %d tap records and %d events", taps, f.sched.Pending())
	}
}
