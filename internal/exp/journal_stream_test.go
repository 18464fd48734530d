package exp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
	"repro/internal/journal"
)

// hashingStore is a MemStore that also feeds every record it persists,
// and every snapshot it is re-based on, into one hash shared by all the
// farm's journals. The simulation is single-threaded, so the order the
// writes reach the hash is the run's own.
type hashingStore struct {
	*journal.MemStore
	node               string
	h                  hash.Hash64
	appends, snapshots *int
}

func (s hashingStore) Append(rec journal.Record) error {
	*s.appends++
	fmt.Fprintf(s.h, "append %s ", s.node)
	s.h.Write(journal.EncodeRecord(rec))
	return s.MemStore.Append(rec)
}

func (s hashingStore) SetSnapshot(snap journal.Snapshot) error {
	*s.snapshots++
	fmt.Fprintf(s.h, "snapshot %s ", s.node)
	s.h.Write(journal.EncodeRecord(journal.Record{Epoch: snap.Epoch, Seq: snap.Seq,
		Kind: journal.RecSnapshot, Snap: snap.State}))
	return s.MemStore.SetSnapshot(snap)
}

// TestChaosJournalStreamPinned runs one E15 chaos farm, failovers and
// partitions included, with every node's journal writing through a
// hashingStore, and pins the hash of everything the journals persisted:
// each record's encoding in commit (or ingest) order and each snapshot.
// A change to how Central keeps or journals its view must leave this
// stream bit-identical.
func TestChaosJournalStreamPinned(t *testing.T) {
	const (
		seed          = 9001
		wantHash      = uint64(0xd35a8355cd05a410)
		wantAppends   = 402
		wantSnapshots = 25
	)
	f, err := farm.Build(chaosSpec(seed, false))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	appends, snapshots := 0, 0
	for name := range f.Journals { // order-free: opening an empty store writes nothing
		j, err := journal.New(hashingStore{journal.NewMemStore(), name, h, &appends, &snapshots}, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.Centrals[name].SetJournal(j)
		f.Journals[name] = j
	}
	engine := check.NewEngine(f)
	engine.Attach(f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		t.Fatal("initial stabilization failed")
	}
	sched := check.Generate(seed, f.CheckTopology(), check.GenOpts{Rounds: 25, Partition: true, Failover: true})
	sched.Run(f)
	for _, v := range engine.Violations() {
		t.Errorf("violation: %v", v)
	}
	if got := h.Sum64(); got != wantHash || appends != wantAppends || snapshots != wantSnapshots {
		t.Fatalf("journal stream: hash %016x, %d appends, %d snapshots; want %016x, %d, %d",
			got, appends, snapshots, wantHash, wantAppends, wantSnapshots)
	}
}
