package journal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/records.golden from this encoder")

// seedRecords returns one record of every kind, the snapshot included.
func seedRecords() []Record {
	snap := NewState()
	snap.Groups[ip(3, 3)] = &GroupState{
		Leader: ip(3, 3), Version: 9, Src: addr(3, 3),
		Members: []wire.Member{mem(3, 3, "z3"), mem(3, 1, "z1")}, Seq: 41, Epoch: 2,
	}
	snap.Adapters[ip(3, 1)] = AdapterState{Member: mem(3, 1, "z1"), Alive: true, Group: ip(3, 3)}
	snap.DeadNodes["z9"] = true
	snap.DeadSwitches["sw-07"] = true
	snap.ExpectedMoves[ip(3, 1)] = 90 * time.Second
	return []Record{
		{Epoch: 1, Seq: 1, Time: time.Second, Kind: RecGroupUpdate, Group: ip(1, 9), Version: 4,
			Src: addr(1, 9), Members: []wire.Member{mem(1, 9, "n9"), mem(1, 2, "n2")}},
		{Epoch: 1, Seq: 2, Kind: RecGroupRemove, Group: ip(1, 9)},
		{Epoch: 1, Seq: 3, Kind: RecAdapterFlip, Member: mem(1, 2, "n2"), Group: ip(1, 9), DiedAt: time.Second},
		{Epoch: 1, Seq: 4, Kind: RecNodeFlip, Node: "n2", Dead: true},
		{Epoch: 1, Seq: 5, Kind: RecSwitchFlip, Node: "sw-01"},
		{Epoch: 1, Seq: 6, Kind: RecMoveExpect, Adapter: ip(1, 2), Deadline: time.Minute},
		{Epoch: 1, Seq: 7, Kind: RecMoveDone, Adapter: ip(1, 2)},
		{Epoch: 2, Seq: 7, Kind: RecSnapshot, Snap: snap},
	}
}

// TestRecordsGolden pins the byte layout of every record kind: one line
// of hex per seedRecords entry, compared byte for byte with the committed
// file. -update is the only writer.
func TestRecordsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, rec := range seedRecords() {
		got.WriteString(hex.EncodeToString(EncodeRecord(rec)))
		got.WriteByte('\n')
	}
	const path = "testdata/records.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s differs from this encoder:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder a journal
// replays its files and the warm standby its stream through. The corpus
// holds one record of every kind plus every prefix of one (torn
// records); any input that decodes must re-encode to a record that
// decodes to the same value.
func FuzzDecodeRecord(f *testing.F) {
	recs := seedRecords()
	for _, rec := range recs {
		f.Add(EncodeRecord(rec))
	}
	torn := EncodeRecord(recs[0])
	for i := range torn {
		f.Add(torn[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		again, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("%v: re-encoding does not decode: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("%v: unstable round trip:\n first %+v\n again %+v", rec.Kind, rec, again)
		}
	})
}

// programRecord turns three program bytes into one committed record of
// kind k (0..6 for RecGroupUpdate..RecMoveDone) over a universe of four
// groups, eight adapters and four node or switch names, small enough that
// records keep overwriting each other.
func programRecord(k, a, b byte, now time.Duration) Record {
	rec := Record{Time: now, Kind: Kind(k + 1)}
	switch rec.Kind {
	case RecGroupUpdate:
		for d := byte(8); d >= 1; d-- { // strictly descending, as Commit requires
			if b&(1<<(d-1)) != 0 {
				rec.Members = append(rec.Members, mem(1, d, fmt.Sprintf("n%d", d%4)))
			}
		}
		rec.Group, rec.Version, rec.Src = ip(2, 1+a%4), uint64(a/4), addr(1, 1+b%8)
	case RecGroupRemove:
		rec.Group = ip(2, 1+a%4)
	case RecAdapterFlip:
		rec.Member = mem(1, 1+a%8, fmt.Sprintf("n%d", a%4))
		rec.Alive, rec.Group, rec.DiedAt = b&1 == 1, ip(2, 1+b/2%4), now
	case RecNodeFlip, RecSwitchFlip:
		rec.Node, rec.Dead = fmt.Sprintf("n%d", a%4), b&1 == 1
	case RecMoveExpect:
		rec.Adapter, rec.Deadline = ip(1, 1+a%8), now+time.Duration(b)*time.Second
	case RecMoveDone:
		rec.Adapter = ip(1, 1+a%8)
	}
	return rec
}

// FuzzFoldReplay reads its input as a program, three bytes an op: a
// record to commit (programRecord), or — one op in eight — a new epoch
// plus a snapshot streamed to the standby mid-stream. It commits each
// record through two journals, over a MemStore and over a FileStore, with
// SnapEvery 2 so snapshots interleave with the log, and Ingests it on a
// standby. After every op each journal's store must replay to exactly its
// live state (Drift), and all three states must be equal; at the end a
// journal reopened over each store must fold to the same state. The
// corpus is testdata/records.golden: each record's bytes, and all of them
// in a row, read as programs.
func FuzzFoldReplay(f *testing.F) {
	golden, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		f.Fatal(err)
	}
	var all []byte
	for _, line := range strings.Fields(string(golden)) {
		b, err := hex.DecodeString(line)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		all = append(all, b...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, program []byte) {
		program = program[:min(len(program), 3*200)]
		fs, err := NewFileStore(t.TempDir(), FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stores := []Store{NewMemStore(), fs, NewMemStore()} // the last is the standby's
		var js []*Journal
		for _, s := range stores {
			j, err := New(s, Options{SnapEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			js = append(js, j)
		}
		active, standby := js[:2], js[2]
		for _, j := range active {
			j.BeginEpoch()
		}
		standby.Ingest(active[0].SnapshotRecord(0))
		for step := 0; len(program) >= 3; step++ {
			op, a, b := program[0], program[1], program[2]
			program = program[3:]
			now := time.Duration(step) * time.Second
			if op%8 == 7 {
				for _, j := range active {
					j.BeginEpoch()
				}
				standby.Ingest(active[0].SnapshotRecord(now))
			} else {
				var rec Record
				for _, j := range active {
					rec = j.Commit(programRecord(op%8, a, b, now))
				}
				if !standby.Ingest(rec) {
					t.Fatalf("step %d: standby rejected in-order record %d", step, rec.Seq)
				}
			}
			for i, j := range js {
				if d := j.Drift(); d != "" {
					t.Fatalf("step %d, journal %d: %s", step, i, d)
				}
				if !j.State().Equal(active[0].State()) {
					t.Fatalf("step %d: journal %d's state differs from the memory journal's", step, i)
				}
			}
		}
		for i, s := range stores {
			re, err := New(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !re.State().Equal(js[i].State()) || re.Seq() != js[i].Seq() || re.Epoch() != js[i].Epoch() {
				t.Fatalf("journal %d: reopening its store folds to another state or position", i)
			}
		}
	})
}
