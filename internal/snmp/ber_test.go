package snmp

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -(1 << 31), 1<<62 - 1, -(1 << 62)}
	for _, v := range vals {
		enc := appendInt(nil, v)
		r := &reader{buf: enc}
		got, err := r.readInt()
		if err != nil {
			t.Fatalf("readInt(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("int round trip %d -> %d", v, got)
		}
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		enc := appendInt(nil, v)
		r := &reader{buf: enc}
		got, err := r.readInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntMinimalEncoding(t *testing.T) {
	// 127 must be 1 byte, 128 needs 2 (leading 0x00 to stay positive).
	if enc := appendInt(nil, 127); len(enc) != 3 { // tag + len + 1
		t.Errorf("127 encoded in %d bytes total", len(enc))
	}
	if enc := appendInt(nil, 128); len(enc) != 4 {
		t.Errorf("128 encoded in %d bytes total", len(enc))
	}
	if enc := appendInt(nil, -128); len(enc) != 3 {
		t.Errorf("-128 encoded in %d bytes total", len(enc))
	}
}

func TestOIDRoundTrip(t *testing.T) {
	oids := []string{
		"1.3.6.1.2.1.2.2.1.8.1",
		"0.0",
		"1.3.6.1.4.1.2.99999.1",
		"2.39.4294967295",
		"2.100.3", // root 2 takes second arcs past 39 (X.690 8.19.4)
		"2.4294967295",
	}
	for _, s := range oids {
		oid := MustOID(s)
		enc, err := appendOID(nil, oid)
		if err != nil {
			t.Fatalf("encode %s: %v", s, err)
		}
		r := &reader{buf: enc}
		body, err := r.expect(tagOID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeOID(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != s {
			t.Errorf("OID round trip %s -> %s", s, got)
		}
	}
}

func TestOIDRejectsBadRoots(t *testing.T) {
	for _, oid := range []OID{{}, {1}, {3, 1}, {1, 40}} {
		if _, err := appendOID(nil, oid); err == nil {
			t.Errorf("appendOID(%v) succeeded, want error", oid)
		}
	}
}

func TestOIDCompareAndPrefix(t *testing.T) {
	a := MustOID("1.3.6.1")
	b := MustOID("1.3.6.1.2")
	c := MustOID("1.3.6.2")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("prefix must order before extension")
	}
	if b.Compare(c) >= 0 {
		t.Error("1.3.6.1.2 must order before 1.3.6.2")
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare must be 0")
	}
	if !b.HasPrefix(a) || a.HasPrefix(b) || c.HasPrefix(a) {
		t.Error("HasPrefix wrong")
	}
}

func TestOIDAppendDoesNotAlias(t *testing.T) {
	base := MustOID("1.3.6.1.99")
	x := base.Append(1)
	y := base.Append(2)
	if x[len(x)-1] == y[len(y)-1] {
		t.Fatal("Append aliased backing arrays")
	}
}

func TestParseOIDErrors(t *testing.T) {
	for _, s := range []string{"", "1", "1.x.3", "1.-2.3", "1.99999999999999999999.3"} {
		if _, err := ParseOID(s); err == nil {
			t.Errorf("ParseOID(%q) succeeded", s)
		}
	}
}

func randomOID(rng *rand.Rand) OID {
	oid := OID{uint32(rng.Intn(3)), uint32(rng.Intn(40))}
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		oid = append(oid, rng.Uint32()>>uint(rng.Intn(20)))
	}
	return oid
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(3) {
	case 0:
		return Integer(rng.Int63() - rng.Int63())
	case 1:
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		return Value{Kind: KindOctetString, Str: b}
	default:
		return Null
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		m := &Message{
			Community: "farm-admin",
			Type:      PDUType(rng.Intn(4)),
			RequestID: rng.Int31(),
			ErrStatus: rng.Intn(6),
			ErrIndex:  rng.Intn(4),
		}
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			m.Bindings = append(m.Bindings, VarBind{OID: randomOID(rng), Value: randomValue(rng)})
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v (%+v)", err, m)
		}
		got, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Community != m.Community || got.Type != m.Type || got.RequestID != m.RequestID ||
			got.ErrStatus != m.ErrStatus || got.ErrIndex != m.ErrIndex || len(got.Bindings) != len(m.Bindings) {
			t.Fatalf("header mismatch: %+v vs %+v", got, m)
		}
		for i := range m.Bindings {
			if got.Bindings[i].OID.Compare(m.Bindings[i].OID) != 0 {
				t.Fatalf("binding %d OID mismatch", i)
			}
			w, g := m.Bindings[i].Value, got.Bindings[i].Value
			if !w.Equal(g) {
				t.Fatalf("binding %d value mismatch: %v vs %v", i, w, g)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x30},
		{0x30, 0x05, 0x02, 0x01, 0x01}, // truncated body
		{0x02, 0x01, 0x00},             // not a sequence
		bytes.Repeat([]byte{0xff}, 64), // junk
		{0x30, 0x02, 0x02, 0x00},       // zero-length int inside
		{0x30, 0x03, 0x02, 0x81, 0xff}, // long-form length overrun
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: Unmarshal accepted garbage", i)
		}
	}
}

// Fuzz-ish robustness: no random byte string may panic the decoder.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %x: %v", b, r)
				}
			}()
			_, _ = Unmarshal(b)
		}()
	}
}

// Truncation property: every strict prefix of a valid message must fail to
// decode, never succeed with wrong content or panic.
func TestTruncationProperty(t *testing.T) {
	m := &Message{
		Community: "c",
		Type:      Set,
		RequestID: 77,
		Bindings:  []VarBind{{OID: MustOID("1.3.6.1.4.1.2.1"), Value: Integer(42)}},
	}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := Unmarshal(enc[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestLongFormLength(t *testing.T) {
	// A message with a >127-byte octet string forces long-form lengths.
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	m := &Message{
		Community: "c", Type: Response, RequestID: 1,
		Bindings: []VarBind{{OID: MustOID("1.3.6.1"), Value: Value{Kind: KindOctetString, Str: big}}},
	}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bindings[0].Value.Str, big) {
		t.Fatal("long payload corrupted")
	}
}

func TestValueEqual(t *testing.T) {
	if !Integer(5).Equal(Integer(5)) || Integer(5).Equal(Integer(6)) {
		t.Error("Integer equality wrong")
	}
	if !OctetString("a").Equal(OctetString("a")) || OctetString("a").Equal(OctetString("b")) {
		t.Error("OctetString equality wrong")
	}
	if !Null.Equal(Null) || Null.Equal(Integer(0)) {
		t.Error("Null equality wrong")
	}
}

func TestValueString(t *testing.T) {
	if Integer(42).String() != "42" || OctetString("hi").String() != "hi" || Null.String() != "null" {
		t.Error("Value.String misrendered")
	}
}

func TestReflectRoundTripEmptyBindings(t *testing.T) {
	m := &Message{Community: "x", Type: Get, RequestID: 9}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	got.Bindings = nil // normalize empty vs nil
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip: %+v vs %+v", m, got)
	}
}

func BenchmarkMarshalMessage(b *testing.B) {
	m := &Message{
		Community: "farm-admin", Type: Set, RequestID: 1234,
		Bindings: []VarBind{
			{OID: MustOID("1.3.6.1.4.1.2.6509.2.1.5"), Value: Integer(103)},
			{OID: MustOID("1.3.6.1.4.1.2.6509.2.1.6"), Value: OctetString("domain-a")},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalMessage(b *testing.B) {
	m := &Message{
		Community: "farm-admin", Type: Set, RequestID: 1234,
		Bindings: []VarBind{
			{OID: MustOID("1.3.6.1.4.1.2.6509.2.1.5"), Value: Integer(103)},
		},
	}
	enc, _ := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// Equal reports deep value equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInteger:
		return v.Int == o.Int
	case KindOctetString:
		return string(v.Str) == string(o.Str)
	default:
		return true
	}
}
