package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// journalingCentral is a fakeCentral that also takes the journal plane.
type journalingCentral struct {
	*fakeCentral
	journaled int
}

func (c *journalingCentral) HandleJournal(transport.Endpoint, transport.Addr, wire.Message) {
	c.journaled++
}

// TestTornPacketsAreCountedOnEveryPlane feeds each of the five plane
// handlers a packet that cannot decode, in each of the ways a packet can
// fail to, and expects one rx-dropped record per packet naming the plane
// and the reason — and the matching counter on the metrics bridge.
func TestTornPacketsAreCountedOnEveryPlane(t *testing.T) {
	h := newHarness(t, 5)
	rec := trace.New(256)
	reg := metrics.NewRegistry()
	rec.AddSink(metrics.ObserveTrace(reg))
	self := ipn(0, 1)
	d := h.addNode(fastConfig(), "n", []transport.IP{self}, []string{"seg"})
	jc := &journalingCentral{fakeCentral: h.central}
	d.SetCentral(jc)
	d.SetTracer(rec)
	d.Start()
	p := d.adapters[0]

	short := func(m wire.Message) []byte { b := wire.Encode(m); return b[:len(b)-1] }
	trailing := func(m wire.Message) []byte { return append(wire.Encode(m), 0) }
	badVersion := func(m wire.Message) []byte { b := wire.Encode(m); b[0] ^= 0x55; return b }
	badType := func(m wire.Message) []byte { b := wire.Encode(m); b[1] = 0xee; return b }

	cases := []struct {
		plane   string
		handler transport.Handler
		pkt     []byte
		reason  string
	}{
		{"beacon", p.onBeaconPacket, short(&wire.Beacon{Sender: ipn(0, 2), Node: "peer"}), "short"},
		{"beacon", p.onBeaconPacket, trailing(&wire.Beacon{Sender: ipn(0, 2), Node: "peer"}), "trailing"},
		{"beacon", p.onBeaconPacket, wire.Encode(&wire.Heartbeat{From: ipn(0, 2)}), "bad-type"},
		{"member", p.onMemberPacket, short(&wire.Prepare{Leader: ipn(0, 2), Members: []wire.Member{{IP: self}}}), "short"},
		{"member", p.onMemberPacket, badVersion(&wire.Commit{Leader: ipn(0, 2)}), "bad-version"},
		{"heartbeat", p.onHeartbeatPacket, short(&wire.Heartbeat{From: ipn(0, 2)}), "short"},
		{"heartbeat", p.onHeartbeatPacket, trailing(&wire.Probe{From: ipn(0, 2)}), "trailing"},
		{"heartbeat", p.onHeartbeatPacket, badType(&wire.Probe{From: ipn(0, 2)}), "bad-type"},
		{"report", d.handleReportPlane, short(&wire.ReportAck{From: ipn(0, 2)}), "short"},
		{"journal", d.handleJournalPlane, trailing(&wire.JournalAck{From: ipn(0, 2)}), "trailing"},
		{"journal", d.handleJournalPlane, nil, "short"},
	}
	src := transport.Addr{IP: ipn(0, 2)}
	for i, c := range cases {
		c.handler(src, transport.Addr{IP: self}, c.pkt)
		recs := rec.Snapshot()
		last := recs[len(recs)-1]
		if n := countKind(recs, trace.KRxDropped); n != i+1 || last.Kind != trace.KRxDropped ||
			last.Detail != c.plane+" "+c.reason || last.Self != self || last.Node != "n" {
			t.Fatalf("case %d (%s, %s): %d drops recorded, last record %v", i, c.plane, c.reason, n, last)
		}
	}
	if jc.journaled != 0 || len(p.heard.names) != 0 {
		t.Error("a torn packet got through to the protocol")
	}
	// An intact packet is not a drop.
	p.onBeaconPacket(src, transport.Addr{}, wire.Encode(&wire.Beacon{Sender: ipn(0, 2), Node: "peer"}))
	if n := countKind(rec.Snapshot(), trace.KRxDropped); n != len(cases) || len(p.heard.names) != 1 {
		t.Errorf("after an intact beacon: %d drops, %d peers heard", n, len(p.heard.names))
	}
	for name, want := range map[string]uint64{
		`rx_dropped_total{plane="beacon",reason="short"}`:       1,
		`rx_dropped_total{plane="heartbeat",reason="bad-type"}`: 1,
		`rx_dropped_total{plane="journal",reason="short"}`:      1,
		`rx_dropped_total{plane="member",reason="bad-version"}`: 1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func countKind(recs []trace.Record, k trace.Kind) (n int) {
	for _, r := range recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}
