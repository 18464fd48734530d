package snmp

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary datagrams to the agent's decoder. The
// corpus holds one message of every PDU type plus every prefix of one
// (torn datagrams); any input that decodes must re-encode, and the
// re-encoding must decode to the same message.
func FuzzUnmarshal(f *testing.F) {
	msgs := []*Message{
		{Community: "farm-admin", Type: Set, RequestID: 1234, Bindings: []VarBind{
			{OID: MustOID("1.3.6.1.4.1.2.6509.2.1.5"), Value: Integer(103)},
			{OID: MustOID("1.3.6.1.4.1.2.6509.2.1.6"), Value: OctetString("domain-a")},
		}},
		{Community: "x", Type: Get, RequestID: 9},
		{Community: "public", Type: GetNext, RequestID: -1, Bindings: []VarBind{
			{OID: MustOID("1.3.6.1.2.1"), Value: Null},
		}},
		{Community: "public", Type: Response, RequestID: 7, ErrStatus: ErrStatusNoSuchName, ErrIndex: 1,
			Bindings: []VarBind{{OID: MustOID("1.3.6.1.2.1.2.2.1.7.300"), Value: Integer(-129)}}},
	}
	for _, m := range msgs {
		enc, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	torn, _ := msgs[0].Marshal()
	for i := range torn {
		f.Add(torn[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("unstable round trip:\n first %+v\n again %+v", m, again)
		}
	})
}
