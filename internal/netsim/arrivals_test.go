package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// TestPostSortsLikeAStableSort holds transmission.post's distribution sort
// to the order it stands in for: arrivals by instant, ties in send order,
// sequence numbers moved onto one reserved block. The latency shapes are
// the ones that bend a distribution sort — everything in one instant, two
// far-apart clusters, fewer distinct instants than arrivals, one outlier —
// as well as the even spread it is built for.
func TestPostSortsLikeAStableSort(t *testing.T) {
	f := newFixture(1)
	dst := f.adapter(1, "s1")
	ln := f.net.lanes[0]
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() time.Duration{
		"even":     func() time.Duration { return 200_000 + time.Duration(rng.Int63n(300_000)) },
		"instant":  func() time.Duration { return 200_000 },
		"coarse":   func() time.Duration { return time.Duration(rng.Intn(7)) * 1000 },
		"clusters": func() time.Duration { return time.Duration(rng.Intn(2))*time.Hour + time.Duration(rng.Intn(50)) },
		"outlier": func() time.Duration {
			if rng.Intn(100) == 0 {
				return time.Hour
			}
			return time.Duration(rng.Intn(1000))
		},
	}
	for name, draw := range shapes {
		for _, n := range []int{1, 2, 3, 17, 499, 1200} {
			tx := ln.newTx(transport.Addr{}, transport.Addr{}, nil, false)
			var want []sim.Arrival
			for k := 0; k < n; k++ {
				at := f.sched.Now() + draw()
				tx.add(at, uint64(k), dst)
				want = append(want, sim.Arrival{At: at, Seq: uint64(k), Dst: dst})
			}
			slices.SortStableFunc(want, func(a, b sim.Arrival) int { return int(a.At - b.At) })
			base := f.sched.ReserveSeq(0)
			tx.post()
			for i := range want {
				want[i].Seq += base
			}
			if got := tx.list.Arrivals; !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: post ordered the arrivals differently from a stable sort by instant", name, n)
			}
			if next := f.sched.ReserveSeq(0); next != base+uint64(n) {
				t.Fatalf("%s, n=%d: post reserved %d sequence numbers", name, n, next-base)
			}
			f.sched.Run()
		}
	}
}

// TestReceiverJudgedAtArrival: a transmission's receivers are decided when
// it is sent, but whether each one hears it is decided when it arrives — an
// adapter that fails, leaves the group or rebinds the port while the
// arrival list is in flight is treated as it is at its own arrival instant,
// exactly as when every arrival was an event of its own.
func TestReceiverJudgedAtArrival(t *testing.T) {
	f := newFixture(1)
	f.net.SetDefaultProfile(LinkProfile{Latency: time.Millisecond, RecvFilter: true, Spread: 500 * time.Microsecond})
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	sender := f.adapter(1, "s1")
	heard := map[byte]string{}
	var rs []*Adapter
	for d := byte(2); d <= 7; d++ {
		r := f.adapter(d, "s1")
		r.JoinGroup(group.IP, group.Port)
		r.Bind(200, func(_, _ transport.Addr, p []byte) { heard[d] = "first:" + string(p) })
		rs = append(rs, r)
	}
	if err := sender.Multicast(200, group, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if f.sched.Pending() != 6 {
		t.Fatalf("pending = %d, want the 6 receivers", f.sched.Pending())
	}
	// All of this happens after the send, before the first arrival (1 ms).
	rs[0].SetMode(FailStop)                                                                    // 2: dead on arrival
	rs[1].LeaveGroup(group.IP, group.Port)                                                     // 3: no longer subscribed
	rs[2].Bind(200, func(_, _ transport.Addr, p []byte) { heard[4] = "rebound:" + string(p) }) // 4: new handler
	rs[3].Bind(200, nil)                                                                       // 5: port closed
	rs[4].SetMode(FailRecv)                                                                    // 6: deaf
	late := f.adapter(8, "s1")                                                                 // 8: attached after the send
	late.JoinGroup(group.IP, group.Port)
	late.Bind(200, func(_, _ transport.Addr, _ []byte) { heard[8] = "late" })
	var lat7 time.Duration // the link has no jitter: sender→7 takes this long every time
	rs[5].Bind(200, func(_, _ transport.Addr, p []byte) { lat7 = f.sched.Now(); heard[7] = "first:" + string(p) })
	f.sched.Run()
	want := map[byte]string{4: "rebound:m", 7: "first:m"}
	if len(heard) != len(want) || heard[4] != want[4] || heard[7] != want[7] {
		t.Fatalf("heard %v, want %v", heard, want)
	}
	if f.sched.Fired() != 6 {
		t.Errorf("fired %d events for 6 arrivals", f.sched.Fired())
	}

	// Mid-list: receiver 7 fails one nanosecond before its arrival, when
	// arrivals ahead of it in the same list have already fired...
	send := func() time.Duration {
		clear(heard)
		if err := sender.Multicast(200, group, []byte("m")); err != nil {
			t.Fatal(err)
		}
		return f.sched.Now() + lat7
	}
	rs[2].Bind(200, func(_, _ transport.Addr, _ []byte) {
		if f.sched.Pending() < 2 {
			t.Error("receiver 4 was meant to arrive ahead of others of its list")
		}
		heard[4] = "early"
	})
	f.sched.At(send()-1, func() { rs[5].SetMode(FailStop) })
	f.sched.Run()
	if _, ok := heard[7]; ok || heard[4] != "early" {
		t.Errorf("receiver 7 failed 1 ns before its arrival: heard %v", heard)
	}
	// ...and an event at the arrival's own instant, scheduled after the
	// send, comes after it: ties go by sequence number, as ever.
	rs[5].SetMode(Healthy)
	f.sched.At(send(), func() { rs[5].SetMode(FailStop) })
	f.sched.Run()
	if heard[7] != "first:m" || rs[5].Mode() != FailStop {
		t.Errorf("receiver 7 failed at its arrival instant, after the send: heard %v", heard)
	}
}
