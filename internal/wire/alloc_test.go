package wire

import (
	"testing"

	"repro/internal/transport"
)

// Allocation regression guards for the zero-alloc message plane. The hot
// planes (beacons, heartbeats, 2PC) encode through pooled Packets and
// decode into caller-owned scratch messages; these tests pin that
// contract so a refactor cannot quietly reintroduce per-message garbage.
// They count on sync.Pool keeping what it is given, which it does not
// under the race detector (it drops items at random there), so a race
// build skips them.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop codecs at random")
	}
}

func allocBeacon() *Beacon {
	return &Beacon{
		Sender:      transport.IP(0x0A000001),
		Node:        "node-07",
		Incarnation: 3,
		Leader:      transport.IP(0x0A000002),
		Version:     41,
		Members:     16,
		Admin:       true,
	}
}

func allocHeartbeat() *Heartbeat {
	return &Heartbeat{From: transport.IP(0x0A000001), Seq: 900, Version: 41, Leader: transport.IP(0x0A000002)}
}

// TestAllocPacketCycle: the pooled encode path allocates nothing in the
// steady state, for fixed-size and string-carrying messages alike.
func TestAllocPacketCycle(t *testing.T) {
	skipUnderRace(t)
	msgs := []Message{allocBeacon(), allocHeartbeat(), &Prepare{Op: OpJoin, Version: 7}}
	for _, m := range msgs {
		m := m
		// Warm the pool so the measured runs only recycle.
		NewPacket(m).Free()
		got := testing.AllocsPerRun(200, func() {
			p := NewPacket(m)
			_ = p.Bytes()
			p.Free()
		})
		if got != 0 {
			t.Errorf("NewPacket(%v)+Free: %.1f allocs/op, want 0", m.Type(), got)
		}
	}
}

// TestAllocAppendEncode: encoding into a caller buffer of sufficient
// capacity is allocation-free.
func TestAllocAppendEncode(t *testing.T) {
	skipUnderRace(t)
	dst := make([]byte, 0, 256)
	m := allocBeacon()
	got := testing.AllocsPerRun(200, func() {
		dst = AppendEncode(dst[:0], m)
	})
	if got != 0 {
		t.Errorf("AppendEncode into pre-sized buffer: %.1f allocs/op, want 0", got)
	}
}

// TestAllocDecodeInto: the receive path decodes hot-plane packets into a
// reused message with zero steady-state allocations — the beacon's node
// name comes out of the pooled decoder's intern table.
func TestAllocDecodeInto(t *testing.T) {
	skipUnderRace(t)
	cases := []struct {
		name    string
		pkt     []byte
		scratch Message
	}{
		{"beacon", Encode(allocBeacon()), &Beacon{}},
		{"heartbeat", Encode(allocHeartbeat()), &Heartbeat{}},
		{"suspect", Encode(&Suspect{Reporter: 1, Suspect: 2, Reason: ReasonProbeTimeout}), &Suspect{}},
	}
	for _, tc := range cases {
		// Warm the decoder pool's intern table with this packet's strings.
		if err := DecodeInto(tc.pkt, tc.scratch); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := DecodeInto(tc.pkt, tc.scratch); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("DecodeInto(%s): %.1f allocs/op, want 0", tc.name, got)
		}
	}
}

// TestAllocRedecodeMemberList: the 2PC fan-out's receive side. Every
// member of a 500-adapter group decodes the same Prepare; once one of them
// has, the rest share its member list and allocate nothing.
func TestAllocRedecodeMemberList(t *testing.T) {
	skipUnderRace(t)
	pkt := Encode(&Prepare{Leader: 1, Version: 9, Token: 3, Op: OpJoin, Members: testMembers(500)})
	var scratch Prepare
	if err := DecodeInto(pkt, &scratch); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(pkt, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("re-decoding a 500-member Prepare: %.1f allocs/op, want 0", got)
	}
}

func BenchmarkNewPacketBeacon(b *testing.B) {
	m := allocBeacon()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPacket(m)
		_ = p.Bytes()
		p.Free()
	}
}

func BenchmarkDecodeIntoBeacon(b *testing.B) {
	pkt := Encode(allocBeacon())
	var scratch Beacon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(pkt, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeIntoHeartbeat(b *testing.B) {
	pkt := Encode(allocHeartbeat())
	var scratch Heartbeat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(pkt, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}
