package farm

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// zonedSpec is a small zoned farm: 4 zones × 6 nodes × 2 adapters, plus
// per-zone gateways on the backbone.
func zonedSpec(seed int64, shards int) Spec {
	return Spec{
		Seed:         seed,
		Zones:        4,
		ZoneNodes:    6,
		ZoneAdapters: 2,
		Shards:       shards,
		StartSkew:    2 * time.Second,
	}
}

// TestZonedFarmStabilizes: every zone elects its own leader, hosts its own
// Central, and all of them reach a stable view.
func TestZonedFarmStabilizes(t *testing.T) {
	f, err := Build(zonedSpec(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.DBs) != 4 || len(f.Buses) != 4 {
		t.Fatalf("per-zone DBs/Buses = %d/%d, want 4/4", len(f.DBs), len(f.Buses))
	}
	// 4 zones × (6 nodes × 2 adapters + 1 gateway) = 52 daemon adapters.
	if got := len(f.AdapterIPs()); got != 52 {
		t.Fatalf("adapters = %d, want 52", got)
	}
	f.Start()
	if _, ok := f.RunUntilAllStable(4, 90*time.Second); !ok {
		t.Fatalf("zones did not all stabilize; hosting=%d", len(f.HostingCentrals()))
	}
	if got := len(f.HostingCentrals()); got != 4 {
		t.Fatalf("hosting Centrals = %d, want 4 (one per zone)", got)
	}
	// Zone Centrals must not share state: each sees only its zone's groups.
	for _, c := range f.HostingCentrals() {
		if n := c.GroupCount(); n < 2 || n > 3 {
			t.Errorf("zone Central tracks %d groups, want 2 (admin+data) or 3 (+backbone)", n)
		}
	}
}

// TestZonedShardedMatchesSingle is the kernel-determinism contract at farm
// level: the same zoned spec run single-threaded and on a 2-shard kernel
// fires the same events and converges to the same instant.
func TestZonedShardedMatchesSingle(t *testing.T) {
	run := func(shards int) (uint64, time.Duration) {
		f, err := Build(zonedSpec(7, shards))
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		at, ok := f.RunUntilAllStable(4, 90*time.Second)
		if !ok {
			t.Fatalf("shards=%d did not stabilize", shards)
		}
		return f.Fired(), at
	}
	fired1, at1 := run(0)
	for _, k := range []int{2, 3} {
		firedK, atK := run(k)
		if firedK != fired1 || atK != at1 {
			t.Fatalf("shards=%d diverged: fired=%d stableAt=%v, want fired=%d stableAt=%v",
				k, firedK, atK, fired1, at1)
		}
	}
}

// TestShardedSpecValidation: sharding requires the zoned shape and a
// shard-safe configuration.
func TestShardedSpecValidation(t *testing.T) {
	if _, err := Build(Spec{Seed: 1, UniformNodes: 4, Shards: 2}); err == nil {
		t.Error("sharded non-zoned spec should be rejected")
	}
	s := zonedSpec(1, 2)
	s.Trace = true
	if _, err := Build(s); err == nil {
		t.Error("sharded spec with Trace should be rejected")
	}
}

// TestAfterOnShardedFarm: After must work under either kernel, or no
// check.Schedule can run on a sharded farm.
func TestAfterOnShardedFarm(t *testing.T) {
	f, err := Build(Spec{Seed: 1, Zones: 2, ZoneNodes: 2, ZoneAdapters: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shards.Stop()
	want := f.Now() + time.Second
	firedAt := time.Duration(-1)
	// Inside a window the farm-wide Now is the last barrier; the firing
	// shard's clock has the event's own instant.
	f.After(time.Second, func() { firedAt = f.Clock().Now() })
	f.RunFor(2 * time.Second)
	if firedAt != want {
		t.Fatalf("After(1s) fired at %v, want %v", firedAt, want)
	}
}

// TestHealRestoresBuildProfile: healing a partitioned segment must put back
// exactly the profile Build installed. On the backbone that is the 1 ms
// latency, the per-pair spread and receiver-side multicast filtering; each
// is observed through the test's own traffic on an unstarted farm.
func TestHealRestoresBuildProfile(t *testing.T) {
	f, err := Build(Spec{Seed: 3, Zones: 2, ZoneNodes: 2, ZoneAdapters: 2})
	if err != nil {
		t.Fatal(err)
	}
	gateway := func(node string) *netsim.Adapter {
		ips := f.Nodes[node].Adapters
		return f.adapters[ips[len(ips)-1]]
	}
	a, b := gateway("z000-n000"), gateway("z001-n000")
	backbone, _ := f.SegmentOf(a.LocalIP())
	if seg, _ := f.SegmentOf(b.LocalIP()); seg != backbone || backbone != switchsim.SegmentName(BackboneVLAN) {
		t.Fatalf("gateways sit on %q and %q, want the backbone", backbone, seg)
	}

	const port = 9999
	group := transport.MakeIP(239, 9, 9, 9)
	heardAt := time.Duration(-1)
	b.Bind(port, func(_, _ transport.Addr, _ []byte) { heardAt = f.Now() })
	// probe returns a unicast's one-way latency, and whether a receiver
	// that joins a group while a multicast to it is in flight still hears
	// it — true only under receiver-side filtering.
	probe := func() (time.Duration, bool) {
		t.Helper()
		sent := f.Now()
		heardAt = -1
		if err := a.Unicast(port, transport.Addr{IP: b.LocalIP(), Port: port}, []byte("u")); err != nil {
			t.Fatal(err)
		}
		f.RunFor(5 * time.Millisecond)
		if heardAt < 0 {
			t.Fatal("unicast probe lost")
		}
		latency := heardAt - sent

		heardAt = -1
		if err := a.Multicast(port, transport.Addr{IP: group, Port: port}, []byte("m")); err != nil {
			t.Fatal(err)
		}
		f.RunFor(100 * time.Microsecond)
		b.JoinGroup(group, port)
		f.RunFor(5 * time.Millisecond)
		b.LeaveGroup(group, port)
		return latency, heardAt >= 0
	}

	latency, lateJoin := probe()
	if latency < backboneLatency || latency >= backboneLatency+linkSpread || !lateJoin {
		t.Fatalf("as built: latency %v, late joiner heard = %v; want [%v, %v) and true",
			latency, lateJoin, backboneLatency, backboneLatency+linkSpread)
	}
	f.SetSegmentLoss(backbone, 1)
	if err := a.Unicast(port, transport.Addr{IP: b.LocalIP(), Port: port}, []byte("u")); err != nil {
		t.Fatal(err)
	}
	heardAt = -1
	f.RunFor(5 * time.Millisecond)
	if heardAt >= 0 {
		t.Fatal("a partitioned backbone delivered")
	}
	f.SetSegmentLoss(backbone, -1)
	if l, lj := probe(); l != latency || lj != lateJoin {
		t.Fatalf("healed: latency %v, late joiner heard = %v; as built %v, %v", l, lj, latency, lateJoin)
	}
}
