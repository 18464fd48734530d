package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// FuzzParseDump feeds arbitrary documents to the decoding the conformance
// harness scrapes every daemon's /trace through: json.Unmarshal into a
// Dump. The corpus holds a
// recorder's real dump plus every prefix of a one-record dump (a torn
// scrape); any document that parses must re-encode to one that parses to
// the same dump.
func FuzzParseDump(f *testing.F) {
	dump := func(recs ...Record) []byte {
		rec := New(8)
		for _, r := range recs {
			rec.Record(r)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	leader := transport.MakeIP(10, 71, 1, 13)
	f.Add(dump(
		Record{T: 1500 * time.Millisecond, Kind: KBeaconSent, Node: "web-1", Self: transport.MakeIP(10, 71, 1, 11)},
		Record{T: 2 * time.Second, Kind: KViewCommit, Node: "web-2", Self: transport.MakeIP(10, 71, 1, 12),
			Group: leader, Version: 3, Count: 3, Digest: EmptyDigest.Add(leader).Add(transport.MakeIP(10, 71, 1, 12))},
		Record{T: 2500 * time.Millisecond, Kind: KPrepareSent, Node: "web-3", Self: leader,
			Peer: transport.MakeIP(10, 71, 1, 11), Group: leader, Token: 7, Detail: "round 1"},
	))
	f.Add(dump())
	torn := dump(Record{T: time.Second, Kind: KCommitRecv, Node: "n", Self: leader, Group: leader, Token: 2})
	for i := range torn {
		f.Add(torn[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d, again Dump
		if err := json.Unmarshal(data, &d); err != nil {
			return // rejected input is fine; panics are not
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("parsed dump does not re-encode: %v", err)
		}
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoding does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("unstable round trip:\n first %+v\n again %+v", d, again)
		}
	})
}
