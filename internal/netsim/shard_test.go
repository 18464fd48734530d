package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// shardFixture builds a sharded network of hosts h0..h{n-1} on one
// RecvFilter segment, host i homed on shard i%k.
type shardFixture struct {
	sh       *sim.Shards
	res      *StaticResolver
	net      *Network
	adapters []*Adapter
	scheds   []*sim.Scheduler // per adapter: its home shard's scheduler
}

func newShardFixture(seed int64, k, hosts int, lookahead time.Duration, p LinkProfile) *shardFixture {
	sh := sim.NewShards(seed, k, lookahead)
	res := NewStaticResolver()
	home := func(node string) int {
		var i int
		fmt.Sscanf(node, "h%d", &i)
		return i % k
	}
	n := NewSharded(sh, res, home)
	n.SetSegmentProfile("seg", p)
	f := &shardFixture{sh: sh, res: res, net: n}
	for i := 0; i < hosts; i++ {
		a := n.AddAdapter(ip(byte(i+1)), fmt.Sprintf("h%d", i))
		res.Attach(a.LocalIP(), "seg")
		f.adapters = append(f.adapters, a)
		f.scheds = append(f.scheds, sh.Shard(i%k))
	}
	n.Ensure()
	return f
}

// TestShardedUnicastCross checks a cross-shard unicast arrives once, with
// the right payload, at send time + base latency + deterministic spread.
func TestShardedUnicastCross(t *testing.T) {
	p := LinkProfile{Latency: 2 * time.Millisecond, Spread: 500 * time.Microsecond}
	f := newShardFixture(1, 2, 2, time.Millisecond, p)
	a, b := f.adapters[0], f.adapters[1]
	if a.ln == b.ln {
		t.Fatal("fixture should split hosts across lanes")
	}
	var gotAt time.Duration
	var got string
	b.Bind(100, func(src, _ transport.Addr, pl []byte) {
		gotAt = f.scheds[1].Now()
		got = string(pl)
	})
	sendAt := 10 * time.Millisecond
	f.scheds[0].AfterFunc(sendAt, func() {
		if err := a.Unicast(100, transport.Addr{IP: b.LocalIP(), Port: 100}, []byte("xlane")); err != nil {
			t.Error(err)
		}
	})
	f.sh.RunUntil(time.Second)
	if got != "xlane" {
		t.Fatalf("payload = %q", got)
	}
	want := sendAt + p.Latency + pairSpread(p, a.LocalIP(), b.LocalIP())
	if gotAt != want {
		t.Fatalf("arrived at %v, want %v", gotAt, want)
	}
}

// TestShardedMulticastRecvFilter checks receiver-side filtering across
// shards: subscribers on every lane hear the multicast, non-subscribers
// and the sender do not.
func TestShardedMulticastRecvFilter(t *testing.T) {
	p := LinkProfile{Latency: 2 * time.Millisecond, RecvFilter: true}
	f := newShardFixture(1, 4, 8, time.Millisecond, p)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	heard := make([]int, len(f.adapters))
	for i, a := range f.adapters {
		i := i
		if i%2 == 0 { // evens subscribe (sender h0 included)
			a.JoinGroup(group.IP, group.Port)
		}
		a.Bind(200, func(_, _ transport.Addr, _ []byte) { heard[i]++ })
	}
	f.scheds[0].AfterFunc(5*time.Millisecond, func() {
		if err := f.adapters[0].Multicast(200, group, []byte("beacon")); err != nil {
			t.Error(err)
		}
	})
	f.sh.RunUntil(time.Second)
	for i, h := range heard {
		want := 0
		if i%2 == 0 && i != 0 {
			want = 1
		}
		if h != want {
			t.Errorf("host %d heard %d, want %d", i, h, want)
		}
	}
}

// TestShardedCrossMulticastRequiresRecvFilter: flooding another shard's
// adapters needs receiver-side filtering. The send panics whether or not
// the remote member is subscribed — its subscriptions are never read —
// and before it builds anything: the local subscriber gets no copy, and
// the sender's next send goes out alone.
func TestShardedCrossMulticastRequiresRecvFilter(t *testing.T) {
	for _, remoteJoined := range []bool{true, false} {
		p := LinkProfile{Latency: 2 * time.Millisecond} // no RecvFilter
		f := newShardFixture(1, 2, 3, time.Millisecond, p)
		group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
		if remoteJoined {
			f.adapters[1].JoinGroup(group.IP, group.Port) // h1: shard 1
		}
		local := f.adapters[2] // h2: shard 0, beside the sender
		local.JoinGroup(group.IP, group.Port)
		var mcasts, ucasts int
		local.Bind(200, func(_, _ transport.Addr, _ []byte) { mcasts++ })
		local.Bind(100, func(_, _ transport.Addr, _ []byte) { ucasts++ })
		f.scheds[0].AfterFunc(time.Millisecond, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("remote joined %v: expected panic for cross-shard multicast without RecvFilter", remoteJoined)
				}
				if err := f.adapters[0].Unicast(100, transport.Addr{IP: local.LocalIP(), Port: 100}, []byte("y")); err != nil {
					t.Error(err)
				}
			}()
			f.adapters[0].Multicast(200, group, []byte("x"))
		})
		f.sh.RunUntil(10 * time.Millisecond)
		if mcasts != 0 || ucasts != 1 {
			t.Errorf("remote joined %v: local member got %d multicasts and %d unicasts, want 0 and 1", remoteJoined, mcasts, ucasts)
		}
	}
}

// deliveryLog runs a draw-free mixed unicast/multicast workload over k
// shards and returns per-receiver logs of (arrival time, source, first
// payload byte) — the observable delivery history.
func deliveryLog(t *testing.T, k int) []string {
	t.Helper()
	const hosts = 12
	p := LinkProfile{Latency: 2 * time.Millisecond, Spread: 700 * time.Microsecond, RecvFilter: true}
	f := newShardFixture(7, k, hosts, time.Millisecond, p)
	group := transport.Addr{IP: transport.BeaconGroup, Port: 200}
	logs := make([]string, hosts)
	for i, a := range f.adapters {
		i, a := i, a
		a.JoinGroup(group.IP, group.Port)
		rec := func(src transport.Addr, pl []byte) {
			logs[i] += fmt.Sprintf("(%v %v %d)", f.scheds[i].Now(), src.IP, pl[0])
		}
		a.Bind(200, func(src, _ transport.Addr, pl []byte) { rec(src, pl) })
		a.Bind(100, func(src, _ transport.Addr, pl []byte) { rec(src, pl) })
	}
	for i, a := range f.adapters {
		i, a := i, a
		f.scheds[i].AfterFunc(time.Duration(i+1)*3*time.Millisecond, func() {
			if err := a.Multicast(200, group, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
			peer := f.adapters[(i+5)%hosts]
			if err := a.Unicast(100, transport.Addr{IP: peer.LocalIP(), Port: 100}, []byte{byte(100 + i)}); err != nil {
				t.Error(err)
			}
		})
	}
	f.sh.RunUntil(time.Second)
	return logs
}

// TestShardedDeliveryDeterminism checks the tentpole contract at the
// netsim level: the same workload produces byte-identical per-receiver
// delivery histories for 1, 2, 3 and 4 shards (1 shard being the exact
// legacy kernel).
func TestShardedDeliveryDeterminism(t *testing.T) {
	base := deliveryLog(t, 1)
	for _, k := range []int{2, 3, 4} {
		got := deliveryLog(t, k)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("k=%d host %d diverged:\n k=1: %s\n k=%d: %s", k, i, base[i], k, got[i])
			}
		}
	}
}

// TestShardedTopologyChangeMidWindowPanics: sharded runs are for static
// topologies; a resolver change surfacing inside a window must fail fast
// rather than race the cache rebuild.
func TestShardedTopologyChangeMidWindowPanics(t *testing.T) {
	p := LinkProfile{Latency: 2 * time.Millisecond}
	f := newShardFixture(1, 2, 2, time.Millisecond, p)
	f.scheds[0].AfterFunc(time.Millisecond, func() {
		f.res.Attach(ip(200), "seg") // bumps the resolver version mid-window
		defer func() {
			if recover() == nil {
				t.Error("expected panic for mid-window topology change")
			}
		}()
		f.adapters[0].Unicast(100, transport.Addr{IP: f.adapters[1].LocalIP(), Port: 100}, []byte("x"))
	})
	f.sh.RunUntil(10 * time.Millisecond)
}
