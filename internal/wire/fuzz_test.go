package wire

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// FuzzDecode seeds the corpus with one encoding of every message type —
// including the journal stream pair — plus a few malformed frames, and
// checks that any input that decodes also re-encodes to a stable value.
// A beacon also goes through DecodeInto's fixed-layout reader, which must
// accept exactly what the walk accepts and yield the same Beacon.
//
// Every input is decoded twice through the pooled path, and once by a
// codec with empty list slots: the second pooled decode of a member list
// is served from a slot, and slots must never change a verdict or a
// value.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	long := testMembers(16)
	f.Add(Encode(&Prepare{Leader: 9, Version: 4, Token: 1, Op: OpJoin, Members: long}))
	f.Add(Encode(&Report{Leader: 9, Segment: "vlan-7", Version: 4, Full: true, Members: long, Left: []transport.IP{3}}))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		m2, err2 := Decode(data)
		cold, errCold := decodeWith(decPool.New().(*Codec), data)
		if fmt.Sprint(err) != fmt.Sprint(errCold) || fmt.Sprint(err2) != fmt.Sprint(errCold) {
			t.Fatalf("%x: pooled decodes say %v then %v, a cold codec %v", data, err, err2, errCold)
		}
		if err == nil && (!reflect.DeepEqual(m, cold) || !reflect.DeepEqual(m2, cold)) {
			t.Fatalf("%x: pooled decodes %#v then %#v, a cold codec %#v", data, m, m2, cold)
		}
		if len(data) >= 2 && Type(data[1]) == TBeacon {
			var b Beacon
			errInto := DecodeInto(data, &b)
			if (err == nil) != (errInto == nil) {
				t.Fatalf("beacon %x: Decode err %v, DecodeInto err %v", data, err, errInto)
			}
			if err == nil && !reflect.DeepEqual(m, &b) {
				t.Fatalf("beacon %x: Decode %#v, DecodeInto %#v", data, m, &b)
			}
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		again, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: re-decode failed: %v", m.Type(), err)
		}
		norm(m)
		norm(again)
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%v: unstable round trip:\n first %#v\n again %#v", m.Type(), m, again)
		}
	})
}
