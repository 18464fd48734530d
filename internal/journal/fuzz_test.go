package journal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"reflect"
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
