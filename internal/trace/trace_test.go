package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func ip(s string) transport.IP {
	v, ok := transport.ParseIP(s)
	if !ok {
		panic("bad ip " + s)
	}
	return v
}

func TestRecorderCapturesInOrder(t *testing.T) {
	r := New(16)
	for i := 0; i < 5; i++ {
		r.Record(Record{Kind: KBeaconSent, T: time.Duration(i) * time.Second})
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("got %d records, want 5", len(snap))
	}
	for i, rec := range snap {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if r.Total() != 5 || r.Dropped() != 0 {
		t.Errorf("total=%d dropped=%d, want 5, 0", r.Total(), r.Dropped())
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r := New(4)
	for i := 1; i <= 10; i++ {
		r.Record(Record{Kind: KBeaconSent, Token: uint64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d records, want capacity 4", len(snap))
	}
	// Oldest-first: tokens 7, 8, 9, 10.
	for i, rec := range snap {
		if want := uint64(7 + i); rec.Token != want {
			t.Errorf("slot %d: token %d, want %d", i, rec.Token, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped=%d, want 6", r.Dropped())
	}
}

func TestRecorderDisable(t *testing.T) {
	r := New(4)
	r.Enable(false)
	r.Record(Record{Kind: KBeaconSent})
	if r.Total() != 0 {
		t.Errorf("disabled recorder captured %d records", r.Total())
	}
	r.Enable(true)
	r.Record(Record{Kind: KBeaconSent})
	if r.Total() != 1 {
		t.Errorf("re-enabled recorder has total %d, want 1", r.Total())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Record{Kind: KOrphaned})
	r.Enable(true)
	r.AddSink(func(Record) {})
	if r.Snapshot() != nil || r.Total() != 0 || r.Cap() != 0 || r.Enabled() {
		t.Error("nil recorder should be inert")
	}
}

func TestSinksObserveEveryRecord(t *testing.T) {
	r := New(2) // smaller than the record count: sinks see past the ring
	var got []Kind
	r.AddSink(func(rec Record) { got = append(got, rec.Kind) })
	for _, k := range []Kind{KBeaconSent, KPrepareSent, KCommitSent} {
		r.Record(Record{Kind: k})
	}
	if len(got) != 3 || got[0] != KBeaconSent || got[2] != KCommitSent {
		t.Errorf("sink saw %v", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New(8)
	r.Record(Record{
		Kind: KCommitSent, T: 1500 * time.Millisecond, Node: "node-001",
		Self: ip("10.1.0.5"), Group: ip("10.1.0.5"), Version: 3, Token: 42,
	})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total   uint64 `json:"total"`
		Records []struct {
			Kind  string  `json:"kind"`
			T     float64 `json:"t_sec"`
			Self  string  `json:"self"`
			Txn   string  `json:"txn"`
			Group string  `json:"group"`
		} `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if dump.Total != 1 || len(dump.Records) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	rec := dump.Records[0]
	if rec.Kind != "2pc-commit-sent" || rec.Self != "10.1.0.5" || rec.T != 1.5 {
		t.Errorf("record = %+v", rec)
	}
	if rec.Txn != "10.1.0.5#42" {
		t.Errorf("txn = %q, want 10.1.0.5#42", rec.Txn)
	}
}

func TestTxnsGroupsAndOrders(t *testing.T) {
	leader := ip("10.1.0.9")
	other := ip("10.1.0.7")
	records := []Record{
		{Kind: KPrepareSent, Group: leader, Token: 1, T: 1 * time.Second},
		{Kind: KBeaconSent, T: 1 * time.Second}, // not 2PC-correlated
		{Kind: KPrepareSent, Group: other, Token: 5, T: 2 * time.Second},
		{Kind: KPrepareAck, Group: leader, Token: 1, T: 2 * time.Second},
		{Kind: KCommitSent, Group: leader, Token: 1, T: 3 * time.Second},
		{Kind: KViewCommit, Group: leader, Version: 2}, // not a 2PC kind
	}
	txns := Txns(records)
	if len(txns) != 2 {
		t.Fatalf("got %d txns, want 2", len(txns))
	}
	if txns[0].ID() != "10.1.0.9#1" || len(txns[0].Records) != 3 {
		t.Errorf("txn[0] = %s with %d records", txns[0].ID(), len(txns[0].Records))
	}
	if txns[1].ID() != "10.1.0.7#5" || len(txns[1].Records) != 1 {
		t.Errorf("txn[1] = %s with %d records", txns[1].ID(), len(txns[1].Records))
	}
}

func TestRecordString(t *testing.T) {
	rec := Record{
		Kind: KSuspicionRaised, T: 12 * time.Second, Node: "web-01",
		Self: ip("10.1.0.5"), Peer: ip("10.1.0.6"), Detail: "probe-timeout",
	}
	s := rec.String()
	for _, want := range []string{"suspicion-raised", "web-01", "10.1.0.5", "10.1.0.6", "probe-timeout"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestConcurrentCapture exercises Record/Snapshot/WriteJSON under -race.
func TestConcurrentCapture(t *testing.T) {
	r := New(64)
	r.AddSink(func(Record) {})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Record{Kind: KBeaconSent, Node: fmt.Sprintf("g%d", g), Token: uint64(i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			_ = r.WriteJSON(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	if r.Total() != 2000 {
		t.Errorf("total = %d, want 2000", r.Total())
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot not contiguous at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}
