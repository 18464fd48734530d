package wire

import (
	"reflect"
	"testing"
)

// FuzzDecode seeds the corpus with one encoding of every message type —
// including the journal stream pair — plus a few malformed frames, and
// checks that any input that decodes also re-encodes to a stable value.
// A beacon also goes through DecodeInto's fixed-layout reader, which must
// accept exactly what the walk accepts and yield the same Beacon.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
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
