package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestDumpRoundTrip checks that a WriteJSON document parses back to the
// records that produced it — the contract the conformance harness's
// /trace scraper depends on.
func TestDumpRoundTrip(t *testing.T) {
	rec := New(16)
	want := []Record{
		{T: 1500 * time.Millisecond, Kind: KBeaconSent, Node: "web-1",
			Self: transport.MakeIP(10, 71, 1, 11)},
		{T: 2 * time.Second, Kind: KViewCommit, Node: "web-2",
			Self:  transport.MakeIP(10, 71, 1, 12),
			Group: transport.MakeIP(10, 71, 1, 13), Version: 3, Count: 3,
			Digest: EmptyDigest.Add(transport.MakeIP(10, 71, 1, 13)).Add(transport.MakeIP(10, 71, 1, 12))},
		{T: 2500 * time.Millisecond, Kind: KPrepareSent, Node: "web-3",
			Self: transport.MakeIP(10, 71, 1, 13), Peer: transport.MakeIP(10, 71, 1, 11),
			Group: transport.MakeIP(10, 71, 1, 13), Token: 7, Detail: "round 1"},
		{T: 3 * time.Second, Kind: KNotifySent, Node: "web-5", Token: 2,
			Detail: "node-failed web-1"},
	}
	for _, r := range want {
		rec.Record(r)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("decode dump: %v", err)
	}
	if d.Total != 4 || d.Dropped != 0 || d.Cap != 16 {
		t.Fatalf("envelope = total %d dropped %d cap %d", d.Total, d.Dropped, d.Cap)
	}
	if len(d.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(d.Records), len(want))
	}
	for i, got := range d.Records {
		w := want[i]
		w.Seq = uint64(i + 1) // recorder assigns Seq
		if got != w {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got, w)
		}
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	var r Record
	if err := r.UnmarshalJSON([]byte(`{"seq":1,"t_sec":0.1,"kind":"martian"}`)); err == nil {
		t.Fatal("unknown kind did not error")
	}
	if err := r.UnmarshalJSON([]byte(`{"seq":1,"t_sec":0.1,"kind":"formed","self":"999.1.1.1"}`)); err == nil {
		t.Fatal("malformed address did not error")
	}
}
