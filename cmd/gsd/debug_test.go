package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// debugRecorder builds a recorder holding one full 2PC round plus a
// beacon, spread across two nodes.
func debugRecorder(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := trace.New(64)
	rec.Enable(true)
	leader := transport.MakeIP(10, 1, 0, 1)
	peer := transport.MakeIP(10, 1, 0, 2)
	rec.Record(trace.Record{Kind: trace.KBeaconSent, Node: "web-01", Self: leader, Group: leader})
	rec.Record(trace.Record{Kind: trace.KPrepareSent, Node: "web-01", Self: leader, Group: leader, Token: 7, Count: 2})
	rec.Record(trace.Record{Kind: trace.KPrepareAck, Node: "web-01", Self: leader, Peer: peer, Group: leader, Token: 7})
	rec.Record(trace.Record{Kind: trace.KCommitSent, Node: "web-01", Self: leader, Group: leader, Token: 7, Count: 2})
	rec.Record(trace.Record{Kind: trace.KCommitRecv, Node: "web-02", Self: peer, Group: leader, Token: 7})
	return rec
}

func TestServeTraceFullDump(t *testing.T) {
	rec := debugRecorder(t)
	w := httptest.NewRecorder()
	serveTrace(w, httptest.NewRequest("GET", "/trace", nil), rec)
	var dump struct {
		Total    uint64            `json:"total"`
		Capacity int               `json:"capacity"`
		Records  []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad dump JSON: %v\n%s", err, w.Body.String())
	}
	if dump.Total != 5 || len(dump.Records) != 5 || dump.Capacity != 64 {
		t.Fatalf("dump = total %d cap %d records %d, want 5/64/5", dump.Total, dump.Capacity, len(dump.Records))
	}
}

func TestServeTraceFilters(t *testing.T) {
	rec := debugRecorder(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?kind=2pc-", 4},
		{"?kind=beacon", 1},
		{"?node=web-02", 1},
		{"?kind=2pc-&n=2", 2},
		{"?kind=no-such-kind", 0},
	} {
		w := httptest.NewRecorder()
		serveTrace(w, httptest.NewRequest("GET", "/trace"+tc.query, nil), rec)
		var dump struct {
			Records []json.RawMessage `json:"records"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
			t.Fatalf("%s: bad JSON: %v", tc.query, err)
		}
		if len(dump.Records) != tc.want {
			t.Errorf("%s: %d records, want %d", tc.query, len(dump.Records), tc.want)
		}
	}
}

func TestServeTraceTxns(t *testing.T) {
	rec := debugRecorder(t)
	w := httptest.NewRecorder()
	serveTrace(w, httptest.NewRequest("GET", "/trace?txns=1", nil), rec)
	var txns []struct {
		ID      string            `json:"id"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &txns); err != nil {
		t.Fatalf("bad txns JSON: %v\n%s", err, w.Body.String())
	}
	if len(txns) != 1 || txns[0].ID != "10.1.0.1#7" || len(txns[0].Records) != 4 {
		t.Fatalf("txns = %+v, want one 10.1.0.1#7 with 4 records", txns)
	}
}

func TestServeTraceBadN(t *testing.T) {
	w := httptest.NewRecorder()
	serveTrace(w, httptest.NewRequest("GET", "/trace?n=bogus", nil), debugRecorder(t))
	if w.Code != 400 || !strings.Contains(w.Body.String(), "bad n") {
		t.Fatalf("code %d body %q, want 400 bad n", w.Code, w.Body.String())
	}
}

// TestWriteUDPPromCountsUnboundDrops sends a datagram to a port whose
// socket exists only for sending (no handler bound): it must show up as
// an unbound drop in the /metrics text, next to every real-socket series.
func TestWriteUDPPromCountsUnboundDrops(t *testing.T) {
	rt := transport.NewRuntime()
	rt.RunAsync()
	defer rt.Close()
	lo := transport.MakeIP(127, 0, 0, 1)
	ep, err := transport.NewUDPEndpoint(rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// The send opens port 47451's socket and lands on it: a self-send to
	// a port nothing is bound on.
	if err := ep.Unicast(47451, transport.Addr{IP: lo, Port: 47451}, []byte("x")); err != nil {
		t.Skipf("no loopback UDP in this environment: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); ep.Counters.DropUnbound.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("datagram to an unbound port was never counted")
		}
	}
	var out strings.Builder
	writeUDPProm(&out, rt, []*transport.UDPEndpoint{ep})
	for _, want := range []string{
		`gulfstream_udp_rx_packets_total{adapter="127.0.0.1"} 1`,
		`gulfstream_udp_rx_bytes_total{adapter="127.0.0.1"} 1`,
		`gulfstream_udp_rx_dropped_total{adapter="127.0.0.1",reason="unbound"} 1`,
		`gulfstream_udp_rx_dropped_total{adapter="127.0.0.1",reason="closed"} 0`,
		`gulfstream_udp_read_errors_total{adapter="127.0.0.1"} 0`,
		`gulfstream_udp_tx_errors_total{adapter="127.0.0.1"} 0`,
		"# TYPE gulfstream_runtime_queue_depth gauge\ngulfstream_runtime_queue_depth ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, out.String())
		}
	}
}
