package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/ordered"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrBadKind is returned by DecodeRecord for a record kind it does not know.
var ErrBadKind = errors.New("journal: unknown record kind")

// recVersion is the first byte of every encoded record.
const recVersion = 1

// EncodeRecord serializes one record: a version byte and the kind byte,
// then walkRecord's layout. Records, snapshots and the wire messages share
// one codec (wire.Codec), so each layout is written once.
func EncodeRecord(rec Record) []byte {
	c := wire.NewEncoder(append(make([]byte, 0, 64), recVersion, byte(rec.Kind)))
	walkRecord(c, &rec)
	return c.Bytes()
}

// DecodeRecord parses one encoded record, rejecting trailing bytes.
func DecodeRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < 2 {
		return rec, fmt.Errorf("journal: %w: %d-byte record", wire.ErrShort, len(b))
	}
	if b[0] != recVersion {
		return rec, fmt.Errorf("journal: unknown record version %d", b[0])
	}
	rec.Kind = Kind(b[1])
	c := wire.NewDecoder(b[2:])
	if !walkRecord(c, &rec) {
		return rec, fmt.Errorf("%w: %d", ErrBadKind, b[1])
	}
	if err := c.Done(); err != nil {
		return rec, fmt.Errorf("journal: %w", err)
	}
	return rec, nil
}

// walkRecord walks one record after its kind byte: the header every kind
// shares (epoch, seq, time), then only the payload fields its kind uses.
// It reports false for a kind it does not know.
func walkRecord(c *wire.Codec, rec *Record) bool {
	c.U64(&rec.Epoch)
	c.U64(&rec.Seq)
	walkDur(c, &rec.Time)
	switch rec.Kind {
	case RecGroupUpdate:
		c.IP(&rec.Group)
		c.U64(&rec.Version)
		walkAddr(c, &rec.Src)
		c.Members(&rec.Members)
	case RecGroupRemove:
		c.IP(&rec.Group)
	case RecAdapterFlip:
		c.Member(&rec.Member)
		c.Bool(&rec.Alive)
		c.IP(&rec.Group)
		walkDur(c, &rec.DiedAt)
	case RecNodeFlip, RecSwitchFlip:
		c.Str(&rec.Node)
		c.Bool(&rec.Dead)
	case RecMoveExpect:
		c.IP(&rec.Adapter)
		walkDur(c, &rec.Deadline)
	case RecMoveDone:
		c.IP(&rec.Adapter)
	case RecSnapshot:
		if rec.Snap == nil {
			rec.Snap = NewState()
		}
		walkState(c, rec.Snap)
	default:
		return false
	}
	return true
}

// walkState walks a full state. Decoding fills s, which starts empty.
func walkState(c *wire.Codec, s *State) {
	walkMap(c, s.Groups, 8, func(leader *transport.IP, g **GroupState) {
		if *g == nil {
			*g = &GroupState{}
		}
		c.IP(&(*g).Leader)
		c.U64(&(*g).Version)
		walkAddr(c, &(*g).Src)
		c.U64(&(*g).Seq)
		c.U64(&(*g).Epoch)
		c.Members(&(*g).Members)
		*leader = (*g).Leader
	})
	walkMap(c, s.Adapters, 8, func(ip *transport.IP, a *AdapterState) {
		c.Member(&a.Member)
		c.Bool(&a.Alive)
		c.IP(&a.Group)
		walkDur(c, &a.DiedAt)
		*ip = a.Member.IP
	})
	name := func(n *string, in *bool) {
		c.Str(n)
		*in = true
	}
	walkMap(c, s.DeadNodes, 2, name)
	walkMap(c, s.DeadSwitches, 2, name)
	walkMap(c, s.ExpectedMoves, 8, func(ip *transport.IP, deadline *time.Duration) {
		c.IP(ip)
		walkDur(c, deadline)
	})
}

// walkMap walks a map as a count and then its entries in ascending key
// order, so an encoding is deterministic. entry walks one entry; decoding,
// it also sets the key, and m (which starts empty) receives the entry.
// min is the fewest bytes one entry can take.
func walkMap[K cmp.Ordered, V any](c *wire.Codec, m map[K]V, min int, entry func(*K, *V)) {
	keys := ordered.Keys(m)
	n := c.Count(len(keys), min)
	for i := 0; i < n; i++ {
		var k K
		var v V
		if i < len(keys) {
			k, v = keys[i], m[keys[i]]
		}
		entry(&k, &v)
		if i >= len(keys) {
			m[k] = v
		}
	}
}

// walkDur walks a duration as a u64 of nanoseconds.
func walkDur(c *wire.Codec, d *time.Duration) {
	v := uint64(*d)
	c.U64(&v)
	*d = time.Duration(v)
}

// walkAddr walks an address as its IP and a u16 port.
func walkAddr(c *wire.Codec, a *transport.Addr) {
	c.IP(&a.IP)
	c.U16(&a.Port)
}

// --- CRC frames (file backend) ---

// A frame is [u32 payload length][u32 CRC-32/IEEE of payload][payload].
// The length cap rejects garbage lengths from a corrupt header before any
// large allocation.
const maxFramePayload = 16 << 20

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame appends one CRC frame for payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// readFrame parses one frame at buf[off:]. It returns the payload and the
// offset just past the frame, or ok=false if the frame is truncated or
// fails its CRC — the torn-tail signal.
func readFrame(buf []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(buf) {
		return nil, off, false
	}
	n := int(binary.BigEndian.Uint32(buf[off:]))
	if n > maxFramePayload || off+8+n > len(buf) {
		return nil, off, false
	}
	sum := binary.BigEndian.Uint32(buf[off+4:])
	payload = buf[off+8 : off+8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, off, false
	}
	return payload, off + 8 + n, true
}
