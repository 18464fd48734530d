package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/transport"
)

func ip4(a, b, c, d byte) transport.IP { return transport.MakeIP(a, b, c, d) }

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Message {
	mem := []Member{
		{IP: ip4(10, 0, 0, 9), Node: "web-09", Index: 1, Admin: false},
		{IP: ip4(10, 0, 0, 3), Node: "web-03", Index: 0, Admin: true},
	}
	return []Message{
		&Beacon{Sender: ip4(10, 0, 0, 1), Node: "web-01", Incarnation: 7, Leader: ip4(10, 0, 0, 9), Version: 12, Members: 5, Admin: true},
		&Prepare{Leader: ip4(10, 0, 0, 9), Version: 13, Token: 0xdeadbeef, Op: OpJoin, Members: mem},
		&PrepareAck{From: ip4(10, 0, 0, 3), Leader: ip4(10, 0, 0, 9), Version: 13, Token: 0xdeadbeef, OK: true},
		&Commit{Leader: ip4(10, 0, 0, 9), Version: 13, Token: 0xdeadbeef, Members: mem},
		&Abort{Leader: ip4(10, 0, 0, 9), Version: 13, Token: 42},
		&JoinRequest{From: ip4(10, 0, 0, 4), Node: "web-04", Index: 2, Admin: false, Incarnation: 3},
		&MergeOffer{From: ip4(10, 0, 0, 2), Version: 4, Members: mem},
		&Heartbeat{From: ip4(10, 0, 0, 5), Seq: 991, Version: 13, Leader: ip4(10, 0, 0, 9)},
		&Suspect{Reporter: ip4(10, 0, 0, 5), Suspect: ip4(10, 0, 0, 6), Version: 13, Reason: ReasonMissedHeartbeats},
		&Probe{From: ip4(10, 0, 0, 9), Nonce: 555},
		&ProbeAck{From: ip4(10, 0, 0, 6), Nonce: 555, Leader: ip4(10, 0, 0, 9), Version: 13},
		&Evict{Leader: ip4(10, 0, 0, 9), Target: ip4(10, 0, 0, 2), Version: 14},
		&ResyncRequest{From: ip4(10, 0, 1, 1)},
		&Ping{From: ip4(10, 0, 0, 1), Nonce: 777, Leader: ip4(10, 0, 0, 9)},
		&PingAck{From: ip4(10, 0, 0, 2), Target: ip4(10, 0, 0, 1), Nonce: 777},
		&PingReq{From: ip4(10, 0, 0, 1), Target: ip4(10, 0, 0, 2), Nonce: 778},
		&Report{Leader: ip4(10, 0, 0, 9), Segment: "vlan-100", Version: 13, Seq: 2, Full: true, PrevLeader: ip4(10, 0, 0, 11), PrevVersion: 12, Fresh: true, Members: mem, Left: []transport.IP{ip4(10, 0, 0, 8)}},
		&ReportAck{From: ip4(10, 0, 1, 1), Seq: 2},
		&Disable{Target: ip4(10, 0, 0, 8), Reason: "vlan mismatch vs configdb"},
		&SubPoll{From: ip4(10, 0, 0, 9), Subgroup: 3, Nonce: 99},
		&SubPollAck{From: ip4(10, 0, 0, 7), Subgroup: 3, Nonce: 99, Alive: 8},
		&JournalAppend{From: ip4(10, 0, 1, 1), Epoch: 2, Seq: 17, Payload: []byte{0xca, 0xfe, 0x01}},
		&JournalAck{From: ip4(10, 0, 1, 2), Epoch: 2, Seq: 17},
	}
}

var update = flag.Bool("update", false, "rewrite testdata/layout.golden from this encoder")

// TestLayoutGolden pins the byte layout of every message type: one line of
// hex per sampleMessages entry, compared byte for byte with the committed
// file. A codec refactor must leave it untouched; a deliberate layout
// change re-runs with -update, the only writer, and shows the diff.
func TestLayoutGolden(t *testing.T) {
	var got bytes.Buffer
	for _, m := range sampleMessages() {
		got.WriteString(hex.EncodeToString(Encode(m)))
		got.WriteByte('\n')
	}
	const path = "testdata/layout.golden"
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
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d (%v):\n got: %s\nwant: %s", path, i+1, sampleMessages()[i].Type(), g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines encoded, %d committed", path, len(g), len(w))
	}
}

func TestEveryTypeRoundTrips(t *testing.T) {
	for _, m := range sampleMessages() {
		pkt := Encode(m)
		got, err := Decode(pkt)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Type(), err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("type mismatch: %v vs %v", got.Type(), m.Type())
		}
		norm(m)
		norm(got)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip:\n sent %#v\n got  %#v", m.Type(), m, got)
		}
	}
}

// norm maps empty slices to nil so DeepEqual compares semantics.
func norm(m Message) {
	switch v := m.(type) {
	case *Prepare:
		if len(v.Members) == 0 {
			v.Members = nil
		}
	case *Commit:
		if len(v.Members) == 0 {
			v.Members = nil
		}
	case *MergeOffer:
		if len(v.Members) == 0 {
			v.Members = nil
		}
	case *Report:
		if len(v.Members) == 0 {
			v.Members = nil
		}
		if len(v.Left) == 0 {
			v.Left = nil
		}
	case *JournalAppend:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
	}
}

// TestEvictRoundTrip pins the Evict layout field by field: eviction is the
// stale-view healing path (leader expels a straggler so it rediscovers),
// and a silently dropped field would strand the straggler forever.
func TestEvictRoundTrip(t *testing.T) {
	sent := &Evict{Leader: ip4(10, 0, 2, 9), Target: ip4(10, 0, 2, 4), Version: 31}
	got, err := Decode(Encode(sent))
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := got.(*Evict)
	if !ok {
		t.Fatalf("decoded to %T", got)
	}
	if ev.Leader != sent.Leader {
		t.Errorf("Leader = %v, want %v", ev.Leader, sent.Leader)
	}
	if ev.Target != sent.Target {
		t.Errorf("Target = %v, want %v", ev.Target, sent.Target)
	}
	if ev.Version != sent.Version {
		t.Errorf("Version = %d, want %d", ev.Version, sent.Version)
	}
}

func TestEmptyCollectionsRoundTrip(t *testing.T) {
	msgs := []Message{
		&Prepare{Leader: ip4(1, 2, 3, 4), Op: OpForm},
		&Report{Leader: ip4(1, 2, 3, 4)},
		&MergeOffer{From: ip4(1, 2, 3, 4)},
		&JournalAppend{From: ip4(1, 2, 3, 4), Epoch: 1, Seq: 1},
	}
	for _, m := range msgs {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		norm(m)
		norm(got)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: %#v vs %#v", m.Type(), m, got)
		}
	}
}

func TestSampleCoversAllTypes(t *testing.T) {
	seen := map[Type]bool{}
	for _, m := range sampleMessages() {
		seen[m.Type()] = true
	}
	for ty := TBeacon; ty < tMax; ty++ {
		if !seen[ty] {
			t.Errorf("sampleMessages misses %v; round-trip coverage gap", ty)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil packet accepted")
	}
	if _, err := Decode([]byte{codecVersion}); err == nil {
		t.Error("1-byte packet accepted")
	}
	if _, err := Decode([]byte{99, byte(TBeacon), 0, 0}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Decode([]byte{codecVersion, 0xEE, 0}); err == nil {
		t.Error("unknown type accepted")
	}
	good := Encode(&Heartbeat{From: ip4(1, 1, 1, 1), Seq: 1, Version: 1})
	if _, err := Decode(append(good, 0xFF)); err != ErrTrailing {
		t.Errorf("trailing byte: err = %v, want ErrTrailing", err)
	}
}

func TestTruncationNeverSucceedsNorPanics(t *testing.T) {
	for _, m := range sampleMessages() {
		pkt := Encode(m)
		for i := 2; i < len(pkt); i++ {
			got, err := Decode(pkt[:i])
			if err == nil {
				t.Fatalf("%v: prefix len %d of %d decoded: %#v", m.Type(), i, len(pkt), got)
			}
		}
	}
}

func TestRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		if len(b) >= 2 {
			b[0] = codecVersion
			b[1] = byte(1 + rng.Intn(int(tMax)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", b, r)
				}
			}()
			_, _ = Decode(b)
		}()
	}
}

// Hostile member counts must not cause huge allocations.
func TestHostileMemberCountBounded(t *testing.T) {
	for _, count := range [][]byte{
		{0xff, 0xfe},             // claims 65534 members, then no bytes
		{0xff, 0xff, 0, 1, 0, 0}, // escaped count: claims 65536
	} {
		pkt := Encode(&Prepare{Leader: ip4(1, 1, 1, 1), Version: 1, Token: 1, Op: OpForm})
		pkt = append(pkt[:len(pkt)-2], count...)
		if _, err := Decode(pkt); err == nil {
			t.Fatalf("hostile member count %x accepted", count)
		}
	}
}

// Counts of 0xFFFF and more take the escape: 0xFFFF then a u32. Shorter
// lists keep the plain u16, so every layout below the escape is unchanged.
func TestCountEscape(t *testing.T) {
	for _, n := range []int{0, 1, 0xfffe, 0xffff, 70000} {
		mem := make([]Member, n)
		pkt := Encode(&MergeOffer{From: ip4(1, 1, 1, 1), Version: 2, Members: mem})
		head := pkt[2+4+8:]
		wantHead := 2
		if n >= 0xffff {
			wantHead = 6
			if head[0] != 0xff || head[1] != 0xff || int(binary.BigEndian.Uint32(head[2:])) != n {
				t.Fatalf("%d members: count bytes %x, want ffff then u32", n, head[:6])
			}
		} else if int(head[0])<<8|int(head[1]) != n {
			t.Fatalf("%d members: count bytes %x", n, head[:2])
		}
		if len(head) != wantHead+8*n {
			t.Fatalf("%d members: %d bytes from the count on, want %d", n, len(head), wantHead+8*n)
		}
		got, err := Decode(pkt)
		if err != nil {
			t.Fatalf("%d members: %v", n, err)
		}
		if len(got.(*MergeOffer).Members) != n {
			t.Fatalf("%d members decoded as %d", n, len(got.(*MergeOffer).Members))
		}
	}
}

func TestLongStringTruncatedAtEncode(t *testing.T) {
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'a'
	}
	m := &Disable{Target: ip4(1, 1, 1, 1), Reason: string(long)}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*Disable).Reason) != 0xffff {
		t.Fatalf("reason length = %d, want capped 65535", len(got.(*Disable).Reason))
	}
}

func TestBigMembershipRoundTrip(t *testing.T) {
	var mem []Member
	for i := 0; i < 1000; i++ {
		mem = append(mem, Member{
			IP:    transport.MakeIP(10, 0, byte(i/250), byte(i%250+1)),
			Node:  "node-xyz",
			Index: byte(i % 3),
			Admin: i%3 == 0,
		})
	}
	m := &Prepare{Leader: mem[0].IP, Version: 9, Token: 11, Op: OpMerge, Members: mem}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("1000-member prepare corrupted")
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := TBeacon; ty < tMax; ty++ {
		if s := ty.String(); s == "" || s[0] == 'T' {
			t.Errorf("Type(%d).String() = %q", ty, s)
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type string wrong")
	}
	for _, o := range []Op{OpForm, OpJoin, OpMerge, OpRemove} {
		if o.String() == "" {
			t.Error("empty Op string")
		}
	}
	for _, r := range []SuspectReason{ReasonMissedHeartbeats, ReasonProbeTimeout, ReasonPingTimeout, ReasonSubgroupDead} {
		if r.String() == "" {
			t.Error("empty reason string")
		}
	}
}

func TestHeartbeatWireSize(t *testing.T) {
	// Heartbeats dominate network load (paper §3); keep them tiny and
	// catch accidental growth: ver+type+ip+seq+version+leader = 26 bytes.
	pkt := Encode(&Heartbeat{From: ip4(1, 1, 1, 1), Seq: 1, Version: 1, Leader: ip4(1, 1, 1, 2)})
	if len(pkt) != 26 {
		t.Fatalf("heartbeat is %d bytes, want 26", len(pkt))
	}
}

func BenchmarkEncodeHeartbeat(b *testing.B) {
	m := &Heartbeat{From: ip4(10, 0, 0, 1), Seq: 1234, Version: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodeHeartbeat(b *testing.B) {
	pkt := Encode(&Heartbeat{From: ip4(10, 0, 0, 1), Seq: 1234, Version: 9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePrepare500 is the formation-time decode every member of
// a 500-member AMG does for each Prepare and Commit.
func BenchmarkDecodePrepare500(b *testing.B) {
	mem := make([]Member, 500)
	for i := range mem {
		mem[i] = Member{IP: transport.MakeIP(10, 0, byte(i/250), byte(i%250+1)), Node: fmt.Sprintf("node-%03d", i)}
	}
	pkt := Encode(&Prepare{Leader: mem[0].IP, Version: 1, Token: 1, Op: OpForm, Members: mem})
	var scratch Prepare
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(pkt, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePrepare64(b *testing.B) {
	var mem []Member
	for i := 0; i < 64; i++ {
		mem = append(mem, Member{IP: transport.MakeIP(10, 0, 0, byte(i+1)), Node: "n", Index: 0})
	}
	m := &Prepare{Leader: mem[0].IP, Version: 1, Token: 1, Op: OpForm, Members: mem}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

// TestDecodeBeaconFixedClearsNode: the fixed-part decoder fills every field
// but Node and leaves Node empty even when the caller's Beacon held an
// earlier beacon's name, so a reused scratch value never carries a stale
// sender name into the next decode.
func TestDecodeBeaconFixedClearsNode(t *testing.T) {
	in := &Beacon{Sender: ip4(10, 0, 0, 1), Node: "web-01", Incarnation: 7, Leader: ip4(10, 0, 0, 9), Version: 12, Members: 5, Admin: true}
	pkt := Encode(in)
	b := Beacon{Sender: 1, Node: "stale", Incarnation: 2, Leader: 3, Version: 4, Members: 5}
	node, err := DecodeBeaconFixed(pkt, &b)
	if err != nil {
		t.Fatal(err)
	}
	if string(node) != in.Node {
		t.Errorf("name bytes %q, want %q", node, in.Node)
	}
	want := *in
	want.Node = ""
	if b != want {
		t.Errorf("decoded %+v, want %+v", b, want)
	}
}
