package journal

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// weighingStore tracks what the journal asks of its store: how many
// snapshots, and how heavy the log between two of them ever got.
type weighingStore struct {
	Store
	snapshots int
	log, peak int
}

func (s *weighingStore) Append(rec Record) error {
	if s.log += rec.weight(); s.log > s.peak {
		s.peak = s.log
	}
	return s.Store.Append(rec)
}

func (s *weighingStore) SetSnapshot(snap Snapshot) error {
	s.snapshots++
	s.log = 0
	return s.Store.SetSnapshot(snap)
}

func bigIP(n int) transport.IP { return transport.MakeIP(10, byte(n>>16), byte(n>>8), byte(n)) }

func bigMember(n int) wire.Member {
	return wire.Member{IP: bigIP(n), Node: fmt.Sprintf("node-%06d", n)}
}

// withAdapters opens a journal over a weighing memory store and gives it
// a state of s adapters.
func withAdapters(t testing.TB, s int) (*Journal, *weighingStore) {
	t.Helper()
	store := &weighingStore{Store: NewMemStore()}
	j, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.BeginEpoch()
	for n := 0; n < s; n++ {
		j.AdapterFlip(0, bigMember(n), true, bigIP(0), 0)
	}
	return j, store
}

// Appends to a state of size S cost one snapshot per max(SnapEvery, S)
// of them: compaction is O(1) amortised per record whatever the state's
// size, and still happens.
func TestSnapshotCadenceFollowsStateSize(t *testing.T) {
	for _, s := range []int{50, 1000, 20000} {
		j, store := withAdapters(t, s)
		period := max(DefaultSnapEvery, s)
		n := 6 * period
		before := store.snapshots
		for i := 0; i < n; i++ {
			j.AdapterFlip(time.Duration(i), bigMember(i%s), i%2 == 0, bigIP(0), 0)
		}
		got := store.snapshots - before
		if got < n/period-1 || got > n/period+1 {
			t.Errorf("state %d: %d snapshots over %d appends, want about %d (one per %d)", s, got, n, n/period, period)
		}
		if j.State().size() != s {
			t.Errorf("state %d: size() = %d", s, j.State().size())
		}
	}
}

// A log of full-membership updates of large groups is weighed by its
// members, not its record count: it is compacted once it outweighs the
// state, so it never exceeds the state by more than one record.
func TestLogOfLargeGroupUpdatesCannotOutweighState(t *testing.T) {
	const groups, size = 400, 100
	store := &weighingStore{Store: NewMemStore()}
	j, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]wire.Member, size)
	update := func(g int, version uint64) {
		for i := range members {
			members[i] = bigMember(g*size + i)
		}
		j.GroupUpdate(0, members[0].IP, version, transport.Addr{IP: members[0].IP}, members)
	}
	for g := 0; g < groups; g++ {
		update(g, 1)
	}
	state := j.State().size()
	if want := groups * (size + 1); state != want {
		t.Fatalf("size() = %d, want %d", state, want)
	}
	store.peak, store.snapshots = 0, 0
	for i := 0; i < 5*groups; i++ {
		update(i%groups, uint64(2+i/groups))
	}
	if limit := state + size + 1; store.peak > limit {
		t.Fatalf("log reached weight %d against a state of %d (limit %d)", store.peak, state, limit)
	}
	if store.snapshots < 4 || store.snapshots > 6 {
		t.Fatalf("%d snapshots for a log of five times the state, want about 5", store.snapshots)
	}
	if j.State().size() != state {
		t.Fatalf("size() drifted to %d from %d under same-size updates", j.State().size(), state)
	}
}

// randomOp commits one random transition over a small universe.
func randomOp(rng *rand.Rand, j *Journal, now time.Duration) Record {
	g := byte(rng.Intn(6) + 1)
	switch rng.Intn(9) {
	case 0, 1, 2:
		var ms []wire.Member
		for d := byte(1); d <= 12; d++ {
			if rng.Intn(2) == 0 {
				ms = append(ms, mem(g, d, fmt.Sprintf("n%d", d)))
			}
		}
		return j.GroupUpdate(now, ip(g, 12), uint64(rng.Intn(50)), addr(g, 12), ms)
	case 3:
		return j.GroupRemove(now, ip(g, 12))
	case 4, 5:
		d := byte(rng.Intn(12) + 1)
		return j.AdapterFlip(now, mem(g, d, fmt.Sprintf("n%d", d)), rng.Intn(2) == 0, ip(g, 12), now)
	case 6:
		return j.NodeFlip(now, fmt.Sprintf("n%d", rng.Intn(12)+1), rng.Intn(2) == 0)
	case 7:
		return j.SwitchFlip(now, fmt.Sprintf("sw%d", rng.Intn(3)), rng.Intn(2) == 0)
	default:
		a := ip(g, byte(rng.Intn(12)+1))
		if rng.Intn(2) == 0 {
			return j.MoveExpect(now, a, now+time.Minute)
		}
		return j.MoveDone(now, a)
	}
}

// At every prefix of a random history, what the store holds — snapshot
// plus log tail — replays to exactly the live state, for memory and file
// stores, on the committing side and on a standby fed through Ingest.
func TestSnapshotPlusTailReplaysEveryPrefix(t *testing.T) {
	reopenFile := func(dir string) func() Store {
		return func() Store {
			s, err := NewFileStore(dir, FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	activeDir, standbyDir := t.TempDir(), t.TempDir()
	activeMem, standbyMem := NewMemStore(), NewMemStore()
	for _, tc := range []struct {
		name            string
		active, standby func() Store
		steps           int
	}{
		{"mem", func() Store { return activeMem }, func() Store { return standbyMem }, 1500},
		{"file", reopenFile(activeDir), reopenFile(standbyDir), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A floor of 4 records lets the size rule decide almost
			// every snapshot while the state grows from nothing.
			active, err := New(tc.active(), Options{SnapEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer active.Close()
			standby, err := New(tc.standby(), Options{SnapEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer standby.Close()
			active.BeginEpoch()
			standby.Ingest(active.SnapshotRecord(0))

			rng := rand.New(rand.NewSource(7))
			check := func(step int, side string, live *Journal, open func() Store) {
				re, err := New(open(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if !live.State().Equal(re.State()) || re.Seq() != live.Seq() || re.Epoch() != live.Epoch() {
					t.Fatalf("step %d: %s store replays to seq %d epoch %d, live is at seq %d epoch %d (states equal: %v)",
						step, side, re.Seq(), re.Epoch(), live.Seq(), live.Epoch(), live.State().Equal(re.State()))
				}
				if re.State().size() != live.State().size() {
					t.Fatalf("step %d: %s replayed size() %d, live %d", step, side, re.State().size(), live.State().size())
				}
			}
			for step := 0; step < tc.steps; step++ {
				rec := randomOp(rng, active, time.Duration(step)*time.Second)
				if !standby.Ingest(rec) {
					t.Fatalf("step %d: standby rejected in-order record %d", step, rec.Seq)
				}
				if !active.State().Equal(standby.State()) {
					t.Fatalf("step %d: standby state diverges from active", step)
				}
				check(step, "active", active, tc.active)
				check(step, "standby", standby, tc.standby)
			}
		})
	}
}

// The steady-state cost of journaling one adapter flip does not grow
// with the state: neither in allocations nor — which is what a snapshot
// every fixed number of records got wrong — in bytes.
func TestAdapterFlipCostIndependentOfStateSize(t *testing.T) {
	const runs = 3000
	for _, s := range []int{1000, 60000} {
		j, _ := withAdapters(t, s)
		members := make([]wire.Member, s)
		for n := range members {
			members[n] = bigMember(n)
		}
		i := 0
		flip := func() {
			i++
			j.AdapterFlip(time.Duration(i), members[i%s], i%2 == 0, bigIP(0), 0)
		}
		for k := 0; k < 2*DefaultSnapEvery; k++ {
			flip() // past the first floor snapshot, into the steady state
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs := testing.AllocsPerRun(runs, flip)
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
		t.Logf("state %d: %.2f allocs and %.0f bytes per flip", s, allocs, bytes)
		if allocs > 2 {
			t.Errorf("state %d: %.2f allocations per flip, want at most 2", s, allocs)
		}
		if bytes > 4096 {
			t.Errorf("state %d: %.0f bytes per flip, want at most 4096", s, bytes)
		}
	}
}
