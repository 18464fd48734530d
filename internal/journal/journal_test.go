package journal

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func ip(c, d byte) transport.IP { return transport.MakeIP(10, 0, c, d) }

func mem(c, d byte, node string) wire.Member {
	return wire.Member{IP: ip(c, d), Node: node, Index: 0, Admin: true}
}

func addr(c, d byte) transport.Addr {
	return transport.Addr{IP: ip(c, d), Port: transport.PortReport}
}

// drive applies a representative sequence of transitions to a journal.
func drive(j *Journal) {
	now := time.Duration(0)
	tick := func() time.Duration { now += time.Second; return now }
	j.GroupUpdate(tick(), ip(1, 9), 3, addr(1, 9),
		[]wire.Member{mem(1, 9, "n9"), mem(1, 5, "n5"), mem(1, 2, "n2")})
	j.GroupUpdate(tick(), ip(2, 7), 1, addr(2, 7),
		[]wire.Member{mem(2, 7, "m7"), mem(2, 3, "m3")})
	j.Commit(Record{Time: tick(), Kind: RecAdapterFlip, Member: mem(1, 5, "n5"), Alive: false, Group: ip(1, 9), DiedAt: now})
	j.GroupUpdate(tick(), ip(1, 9), 4, addr(1, 9),
		[]wire.Member{mem(1, 9, "n9"), mem(1, 2, "n2")})
	j.Commit(Record{Time: tick(), Kind: RecNodeFlip, Node: "n5", Dead: true})
	j.Commit(Record{Time: tick(), Kind: RecSwitchFlip, Node: "sw-00", Dead: true})
	j.Commit(Record{Time: tick(), Kind: RecSwitchFlip, Node: "sw-00", Dead: false})
	j.Commit(Record{Time: tick(), Kind: RecMoveExpect, Adapter: ip(2, 3), Deadline: now + time.Minute})
	j.Commit(Record{Time: tick(), Kind: RecGroupRemove, Group: ip(2, 7)})
	j.Commit(Record{Time: tick(), Kind: RecAdapterFlip, Member: mem(1, 5, "n5"), Alive: true, Group: ip(1, 9), DiedAt: 0})
	j.Commit(Record{Time: tick(), Kind: RecNodeFlip, Node: "n5", Dead: false})
	j.Commit(Record{Time: tick(), Kind: RecMoveDone, Adapter: ip(2, 3)})
	j.GroupUpdate(tick(), ip(2, 7), 2, addr(2, 7),
		[]wire.Member{mem(2, 7, "m7"), mem(2, 3, "m3"), mem(2, 1, "m1")})
}

func TestReplayEquivalence(t *testing.T) {
	store := NewMemStore()
	j, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.BeginEpoch()
	drive(j)

	// A second journal over the same store must fold to the same state.
	replayed, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Loaded() {
		t.Fatal("replayed journal does not report loaded state")
	}
	if !j.State().Equal(replayed.State()) {
		t.Fatalf("replayed state differs:\nlive %+v\nreplay %+v", j.State(), replayed.State())
	}
	if replayed.Seq() != j.Seq() || replayed.Epoch() != j.Epoch() {
		t.Fatalf("position differs: (%d,%d) vs (%d,%d)",
			replayed.Epoch(), replayed.Seq(), j.Epoch(), j.Seq())
	}
}

func TestCompactionPreservesState(t *testing.T) {
	// SnapEvery 3 forces several compactions during drive.
	store := NewMemStore()
	j, err := New(store, Options{SnapEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	j.BeginEpoch()
	drive(j)
	snap, recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State == nil {
		t.Fatal("no snapshot after compaction")
	}
	if len(recs) >= 13 {
		t.Fatalf("log not compacted: %d records retained", len(recs))
	}
	replayed, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !j.State().Equal(replayed.State()) {
		t.Fatal("compacted replay diverges from live state")
	}
}

func TestIngestStreamMatchesSource(t *testing.T) {
	active := NewMem()
	active.BeginEpoch()
	standby := NewMem()

	// Bootstrap with a snapshot record, then stream the increments.
	if !standby.Ingest(active.SnapshotRecord(0)) {
		t.Fatal("snapshot rejected")
	}
	var streamed []Record
	now := time.Duration(0)
	commit := func(rec Record) { streamed = append(streamed, rec) }
	commit(active.GroupUpdate(now, ip(1, 9), 1, addr(1, 9),
		[]wire.Member{mem(1, 9, "n9"), mem(1, 2, "n2")}))
	commit(active.Commit(Record{Time: now, Kind: RecAdapterFlip, Member: mem(1, 2, "n2"), Alive: false, Group: ip(1, 9), DiedAt: now}))
	commit(active.Commit(Record{Time: now, Kind: RecNodeFlip, Node: "n2", Dead: true}))
	for _, rec := range streamed {
		if !standby.Ingest(rec) {
			t.Fatalf("in-order record %d rejected", rec.Seq)
		}
	}
	if !active.State().Equal(standby.State()) {
		t.Fatal("standby state diverges from active")
	}
	for _, g := range standby.State().Groups {
		if !g.Streamed {
			t.Fatal("streamed group not marked streamed")
		}
	}
	// Out-of-order and duplicate records must be dropped.
	if standby.Ingest(Record{Epoch: active.Epoch(), Seq: active.Seq() + 5, Kind: RecNodeFlip, Node: "x", Dead: true}) {
		t.Fatal("gap record accepted")
	}
	if standby.Ingest(streamed[0]) {
		t.Fatal("duplicate record accepted")
	}
	if !active.State().Equal(standby.State()) {
		t.Fatal("rejected records mutated standby state")
	}
}

func TestRecordCodecRoundTrips(t *testing.T) {
	full := NewState()
	full.Groups[ip(3, 3)] = &GroupState{
		Leader: ip(3, 3), Version: 9, Src: addr(3, 3),
		Members: []wire.Member{mem(3, 3, "z3"), mem(3, 1, "z1")},
		Seq:     41, Epoch: 2,
	}
	full.Adapters[ip(3, 1)] = AdapterState{Member: mem(3, 1, "z1"), Alive: true, Group: ip(3, 3)}
	full.DeadNodes["z9"] = true
	full.DeadSwitches["sw-07"] = true
	full.ExpectedMoves[ip(3, 1)] = 90 * time.Second

	recs := []Record{
		{Epoch: 1, Seq: 1, Time: time.Second, Kind: RecGroupUpdate, Group: ip(1, 9), Version: 4,
			Src: addr(1, 9), Members: []wire.Member{mem(1, 9, "n9"), mem(1, 2, "n2")}},
		{Epoch: 1, Seq: 2, Time: 2 * time.Second, Kind: RecGroupRemove, Group: ip(1, 9)},
		{Epoch: 1, Seq: 3, Time: 3 * time.Second, Kind: RecAdapterFlip,
			Member: mem(1, 2, "n2"), Alive: false, Group: ip(1, 9), DiedAt: 3 * time.Second},
		{Epoch: 1, Seq: 4, Kind: RecNodeFlip, Node: "n2", Dead: true},
		{Epoch: 1, Seq: 5, Kind: RecSwitchFlip, Node: "sw-01", Dead: false},
		{Epoch: 1, Seq: 6, Kind: RecMoveExpect, Adapter: ip(1, 2), Deadline: time.Minute},
		{Epoch: 1, Seq: 7, Kind: RecMoveDone, Adapter: ip(1, 2)},
		{Epoch: 2, Seq: 7, Kind: RecSnapshot, Snap: full},
	}
	for _, rec := range recs {
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("%v: %v", rec.Kind, err)
		}
		if rec.Kind == RecSnapshot {
			if got.Snap == nil || !got.Snap.Equal(rec.Snap) {
				t.Fatalf("snapshot record corrupted: %+v", got.Snap)
			}
			got.Snap, rec.Snap = nil, nil
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("%v round trip:\nsent %+v\ngot  %+v", rec.Kind, rec, got)
		}
	}
}

func TestRecordDecodeRejectsGarbage(t *testing.T) {
	rec := Record{Epoch: 1, Seq: 1, Kind: RecGroupUpdate, Group: ip(1, 1),
		Members: []wire.Member{mem(1, 1, "a")}}
	b := EncodeRecord(rec)
	for i := 1; i < len(b); i++ {
		if _, err := DecodeRecord(b[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded", i)
		}
	}
	if _, err := DecodeRecord(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), b...)
	bad[1] = 0xEE
	if _, err := DecodeRecord(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad = append([]byte(nil), b...)
	bad[0] = 9
	if _, err := DecodeRecord(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := RecGroupUpdate; k <= RecSnapshot; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Fatalf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}
