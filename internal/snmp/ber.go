// Package snmp implements the small slice of SNMPv2c that GulfStream
// Central needs to manage network switches: BER encoding for the basic
// types, GET / GETNEXT / SET PDUs with community-string authentication, an
// agent with a pluggable MIB (implemented by the simulated switches in
// internal/switchsim), and a client with timeout/retry.
//
// The paper's prototype reconfigures Cisco 6509 VLANs "via SNMP"; this
// package reproduces that management path end to end so that moving a
// server between domains exercises a real encode → network → agent →
// VLAN-table code path rather than a function call.
package snmp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BER universal tags used by SNMP.
const (
	tagInteger     = 0x02
	tagOctetString = 0x04
	tagNull        = 0x05
	tagOID         = 0x06
	tagSequence    = 0x30
)

// PDU tags (context-specific, constructed).
const (
	tagGetRequest     = 0xa0
	tagGetNextRequest = 0xa1
	tagGetResponse    = 0xa2
	tagSetRequest     = 0xa3
)

// ErrTruncated reports a BER element extending past the buffer.
var ErrTruncated = errors.New("snmp: truncated BER element")

// ErrBadEncoding reports structurally invalid BER.
var ErrBadEncoding = errors.New("snmp: invalid BER encoding")

// appendLength appends a BER length (short or long form).
func appendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	var tmp [8]byte
	i := len(tmp)
	for v := uint(n); v > 0; v >>= 8 {
		i--
		tmp[i] = byte(v)
	}
	dst = append(dst, byte(0x80|(len(tmp)-i)))
	return append(dst, tmp[i:]...)
}

// appendTLV appends tag, length and value.
func appendTLV(dst []byte, tag byte, val []byte) []byte {
	dst = append(dst, tag)
	dst = appendLength(dst, len(val))
	return append(dst, val...)
}

// appendInt appends a BER INTEGER (two's complement, minimal length).
func appendInt(dst []byte, v int64) []byte {
	var tmp [9]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte(v)
		v >>= 8
		// Stop when remaining bits are pure sign extension of tmp[i].
		if (v == 0 && tmp[i]&0x80 == 0) || (v == -1 && tmp[i]&0x80 != 0) {
			break
		}
	}
	return appendTLV(dst, tagInteger, tmp[i:])
}

// appendOID appends a BER OBJECT IDENTIFIER.
func appendOID(dst []byte, oid OID) ([]byte, error) {
	// X.690 8.19.4: the first two arcs share one subidentifier, 40*X+Y,
	// so Y < 40 under roots 0 and 1 while root 2 takes any Y.
	if len(oid) < 2 || oid[0] > 2 || (oid[0] < 2 && oid[1] >= 40) {
		return dst, fmt.Errorf("snmp: cannot encode OID %v", oid)
	}
	var body []byte
	body = appendBase128(body, uint64(oid[0])*40+uint64(oid[1]))
	for _, sub := range oid[2:] {
		body = appendBase128(body, uint64(sub))
	}
	return appendTLV(dst, tagOID, body), nil
}

func appendBase128(dst []byte, v uint64) []byte {
	var tmp [10]byte
	i := len(tmp) - 1
	tmp[i] = byte(v & 0x7f)
	for v >>= 7; v > 0; v >>= 7 {
		i--
		tmp[i] = byte(v&0x7f) | 0x80
	}
	return append(dst, tmp[i:]...)
}

// reader walks a BER byte stream.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) empty() bool { return r.pos >= len(r.buf) }

// header reads a tag and length, returning the value bounds.
func (r *reader) header() (tag byte, val []byte, err error) {
	if r.pos >= len(r.buf) {
		return 0, nil, ErrTruncated
	}
	tag = r.buf[r.pos]
	r.pos++
	if r.pos >= len(r.buf) {
		return 0, nil, ErrTruncated
	}
	l := int(r.buf[r.pos])
	r.pos++
	if l >= 0x80 {
		n := l & 0x7f
		if n == 0 || n > 4 {
			return 0, nil, ErrBadEncoding
		}
		l = 0
		for i := 0; i < n; i++ {
			if r.pos >= len(r.buf) {
				return 0, nil, ErrTruncated
			}
			l = l<<8 | int(r.buf[r.pos])
			r.pos++
		}
	}
	if l < 0 || r.pos+l > len(r.buf) {
		return 0, nil, ErrTruncated
	}
	val = r.buf[r.pos : r.pos+l]
	r.pos += l
	return tag, val, nil
}

func (r *reader) expect(want byte) ([]byte, error) {
	tag, val, err := r.header()
	if err != nil {
		return nil, err
	}
	if tag != want {
		return nil, fmt.Errorf("%w: tag 0x%02x, want 0x%02x", ErrBadEncoding, tag, want)
	}
	return val, nil
}

func (r *reader) readInt() (int64, error) {
	val, err := r.expect(tagInteger)
	if err != nil {
		return 0, err
	}
	return decodeInt(val)
}

func decodeInt(val []byte) (int64, error) {
	if len(val) == 0 || len(val) > 8 {
		return 0, ErrBadEncoding
	}
	v := int64(0)
	if val[0]&0x80 != 0 {
		v = -1
	}
	for _, b := range val {
		v = v<<8 | int64(b)
	}
	return v, nil
}

func decodeOID(val []byte) (OID, error) {
	if len(val) == 0 {
		return nil, ErrBadEncoding
	}
	var oid OID
	var v uint64
	first := true
	started := false
	for _, b := range val {
		v = v<<7 | uint64(b&0x7f)
		started = true
		if v > math.MaxUint32+80 {
			return nil, ErrBadEncoding // no arc fits: stop before v can wrap
		}
		if b&0x80 == 0 {
			if first {
				root := min(v/40, 2) // root 2 takes every subidentifier from 80 up
				oid = append(oid, uint32(root))
				v -= 40 * root
				first = false
			}
			if v > math.MaxUint32 {
				return nil, ErrBadEncoding
			}
			oid = append(oid, uint32(v))
			v = 0
			started = false
		}
	}
	if started {
		return nil, ErrTruncated
	}
	return oid, nil
}

// OID is an SNMP object identifier.
type OID []uint32

// ParseOID parses dotted form like "1.3.6.1.2.1.2.2.1.8".
func ParseOID(s string) (OID, error) {
	parts := strings.Split(strings.TrimPrefix(s, "."), ".")
	if len(parts) < 2 {
		return nil, fmt.Errorf("snmp: OID %q too short", s)
	}
	oid := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID %q: %v", s, err)
		}
		oid[i] = uint32(v)
	}
	return oid, nil
}

// MustOID is ParseOID that panics; for package-level constants.
func MustOID(s string) OID {
	oid, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return oid
}

// String renders dotted form.
func (o OID) String() string {
	var b strings.Builder
	for i, v := range o {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	return b.String()
}

// Compare orders OIDs lexicographically (the GETNEXT walk order).
func (o OID) Compare(other OID) int {
	for i := 0; i < len(o) && i < len(other); i++ {
		switch {
		case o[i] < other[i]:
			return -1
		case o[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	}
	return 0
}

// HasPrefix reports whether o starts with prefix.
func (o OID) HasPrefix(prefix OID) bool {
	if len(o) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if o[i] != v {
			return false
		}
	}
	return true
}

// Append returns o with extra subidentifiers appended (fresh backing array).
func (o OID) Append(sub ...uint32) OID {
	out := make(OID, 0, len(o)+len(sub))
	out = append(out, o...)
	return append(out, sub...)
}

// Value is an SNMP variable value: one of Integer, OctetString, or Null.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  []byte
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInteger
	KindOctetString
)

// Integer makes an INTEGER value.
func Integer(v int64) Value { return Value{Kind: KindInteger, Int: v} }

// OctetString makes an OCTET STRING value.
func OctetString(s string) Value { return Value{Kind: KindOctetString, Str: []byte(s)} }

// Null is the NULL value (the placeholder in GET requests).
var Null = Value{Kind: KindNull}

func (v Value) String() string {
	switch v.Kind {
	case KindInteger:
		return strconv.FormatInt(v.Int, 10)
	case KindOctetString:
		return string(v.Str)
	default:
		return "null"
	}
}

func appendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInteger:
		return appendInt(dst, v.Int)
	case KindOctetString:
		return appendTLV(dst, tagOctetString, v.Str)
	default:
		return appendTLV(dst, tagNull, nil)
	}
}

// VarBind pairs an OID with a value.
type VarBind struct {
	OID   OID
	Value Value
}

// PDUType is the SNMP operation.
type PDUType int

// PDU types.
const (
	Get PDUType = iota
	GetNext
	Response
	Set
)

func (t PDUType) String() string {
	switch t {
	case Get:
		return "get"
	case GetNext:
		return "getnext"
	case Response:
		return "response"
	case Set:
		return "set"
	default:
		return fmt.Sprintf("PDUType(%d)", int(t))
	}
}

func (t PDUType) tag() byte {
	switch t {
	case Get:
		return tagGetRequest
	case GetNext:
		return tagGetNextRequest
	case Response:
		return tagGetResponse
	case Set:
		return tagSetRequest
	}
	return 0
}

// SNMP error-status codes (the subset agents here produce).
const (
	ErrStatusNoError     = 0
	ErrStatusTooBig      = 1 // api: RFC 1157 numbers the statuses; the table stays whole
	ErrStatusNoSuchName  = 2
	ErrStatusBadValue    = 3
	ErrStatusGenErr      = 5
	ErrStatusNotWritable = 17
)

// Message is a complete SNMPv2c message.
type Message struct {
	Community string
	Type      PDUType
	RequestID int32
	ErrStatus int
	ErrIndex  int
	Bindings  []VarBind
}

const snmpVersion2c = 1

// Marshal encodes the message to BER.
func (m *Message) Marshal() ([]byte, error) {
	var binds []byte
	for _, vb := range m.Bindings {
		var one []byte
		var err error
		one, err = appendOID(one, vb.OID)
		if err != nil {
			return nil, err
		}
		one = appendValue(one, vb.Value)
		binds = appendTLV(binds, tagSequence, one)
	}
	var pdu []byte
	pdu = appendInt(pdu, int64(m.RequestID))
	pdu = appendInt(pdu, int64(m.ErrStatus))
	pdu = appendInt(pdu, int64(m.ErrIndex))
	pdu = appendTLV(pdu, tagSequence, binds)

	var body []byte
	body = appendInt(body, snmpVersion2c)
	body = appendTLV(body, tagOctetString, []byte(m.Community))
	body = appendTLV(body, m.Type.tag(), pdu)
	return appendTLV(nil, tagSequence, body), nil
}

// Unmarshal decodes a BER-encoded SNMPv2c message.
func Unmarshal(data []byte) (*Message, error) {
	top := &reader{buf: data}
	body, err := top.expect(tagSequence)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body}
	ver, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if ver != snmpVersion2c {
		return nil, fmt.Errorf("snmp: unsupported version %d", ver)
	}
	comm, err := r.expect(tagOctetString)
	if err != nil {
		return nil, err
	}
	tag, pduBytes, err := r.header()
	if err != nil {
		return nil, err
	}
	m := &Message{Community: string(comm)}
	switch tag {
	case tagGetRequest:
		m.Type = Get
	case tagGetNextRequest:
		m.Type = GetNext
	case tagGetResponse:
		m.Type = Response
	case tagSetRequest:
		m.Type = Set
	default:
		return nil, fmt.Errorf("%w: unknown PDU tag 0x%02x", ErrBadEncoding, tag)
	}
	p := &reader{buf: pduBytes}
	rid, err := p.readInt()
	if err != nil {
		return nil, err
	}
	m.RequestID = int32(rid)
	es, err := p.readInt()
	if err != nil {
		return nil, err
	}
	m.ErrStatus = int(es)
	ei, err := p.readInt()
	if err != nil {
		return nil, err
	}
	m.ErrIndex = int(ei)
	bindsBytes, err := p.expect(tagSequence)
	if err != nil {
		return nil, err
	}
	b := &reader{buf: bindsBytes}
	for !b.empty() {
		one, err := b.expect(tagSequence)
		if err != nil {
			return nil, err
		}
		vr := &reader{buf: one}
		oidBytes, err := vr.expect(tagOID)
		if err != nil {
			return nil, err
		}
		oid, err := decodeOID(oidBytes)
		if err != nil {
			return nil, err
		}
		vtag, vbytes, err := vr.header()
		if err != nil {
			return nil, err
		}
		var val Value
		switch vtag {
		case tagInteger:
			iv, err := decodeInt(vbytes)
			if err != nil {
				return nil, err
			}
			val = Integer(iv)
		case tagOctetString:
			val = Value{Kind: KindOctetString, Str: append([]byte(nil), vbytes...)}
		case tagNull:
			val = Null
		default:
			return nil, fmt.Errorf("%w: unsupported value tag 0x%02x", ErrBadEncoding, vtag)
		}
		m.Bindings = append(m.Bindings, VarBind{OID: oid, Value: val})
	}
	return m, nil
}
