package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/transport"
)

// Codec is the one binary layout engine (big-endian). A layout is written
// once, as a walk that hands every field to a Codec primitive by pointer:
// an encoding codec appends the field, a decoding codec overwrites it. So
// there is no separate encoder and decoder that could drift apart. Messages
// walk themselves; internal/journal walks its records and snapshots over
// the same primitives.
//
// A decoding codec's failure is sticky: after the first short read every
// primitive leaves its field alone and Done reports where it happened.
// The scalar primitives are small enough to inline into the walks. The
// pooled decoders (Decode, DecodeInto) also carry two caches. The intern
// table deduplicates decoded strings across packets: node names repeat in
// every beacon and membership list, and returning the shared copy keeps
// the hot receive paths allocation-free. The list slots do the same for
// whole member lists, which a 2PC round sends to every member alike.
type Codec struct {
	buf    []byte
	pos    int
	short  bool // a read ran past the end; pos is where it began
	decode bool

	intern     map[string]string // nil: no interning and no list slots
	internCost int               // charged as internBudget says
	lists      [listSlots]struct {
		raw []byte   // a list's wire bytes, count included
		ms  []Member // what they decoded to
	}
	nextSlot int // the slot the next miss overwrites
}

// listSlots is how many lists a pooled codec remembers, overwritten in
// turn. Formation interleaves the lists of the segments a node's adapters
// sit on, two in the benchmark farms: in their cold starts, sharded or
// not, nearly every hit was on one of the two newest lists, and one slot
// missed about half the time and gave back a third of the memory the
// slots save. A goroutine that interleaves more lists than this misses,
// and a miss decodes as before, plus a failed compare and a copy of the
// list's bytes.
const listSlots = 2

// NewEncoder returns a codec that appends to dst.
func NewEncoder(dst []byte) *Codec { return &Codec{buf: dst} }

// NewDecoder returns a codec that reads b from its start.
func NewDecoder(b []byte) *Codec { return &Codec{buf: b, decode: true} }

// Bytes returns an encoding codec's buffer: dst with every walked field
// appended.
func (c *Codec) Bytes() []byte { return c.buf }

// Done returns a decoding codec's failure: ErrShort if a read ran past the
// end, ErrTrailing if the walk left bytes unread.
func (c *Codec) Done() error {
	switch {
	case c.short:
		return fmt.Errorf("%w: at byte %d", ErrShort, c.pos)
	case c.decode && c.pos != len(c.buf):
		return ErrTrailing
	}
	return nil
}

// internBudget bounds an intern table by what it holds, each name charged
// its bytes plus internEntryCost for map slot and header, not by a count a
// real farm exceeds: a pooled codec sees every node name of its shard, and
// a 131 072-adapter farm's 65 536 names charge about 4 MB. Hostile input
// can fill one table to the budget (under twice that in memory, at the
// map's emptiest after a growth); later strings are converted afresh.
const internBudget, internEntryCost = 8 << 20, 48

// need reports whether n more bytes can be read, failing the codec if not.
func (c *Codec) need(n int) bool {
	if c.short || n > len(c.buf)-c.pos {
		c.short = true
		return false
	}
	return true
}

// u8 walks one byte.
func (c *Codec) u8(v *byte) {
	if !c.decode {
		c.buf = append(c.buf, *v)
	} else if c.need(1) {
		*v = c.buf[c.pos]
		c.pos++
	}
}

// Bool walks a bool as one byte: 1 or 0 out, anything non-zero in is true.
func (c *Codec) Bool(v *bool) {
	if !c.decode {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if c.need(1) {
		*v = c.buf[c.pos] != 0
		c.pos++
	}
}

// U16 walks a big-endian uint16.
func (c *Codec) U16(v *uint16) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if c.need(2) {
		*v = binary.BigEndian.Uint16(c.buf[c.pos:])
		c.pos += 2
	}
}

// u32 walks a big-endian uint32.
func (c *Codec) u32(v *uint32) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if c.need(4) {
		*v = binary.BigEndian.Uint32(c.buf[c.pos:])
		c.pos += 4
	}
}

// U64 walks a big-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if c.need(8) {
		*v = binary.BigEndian.Uint64(c.buf[c.pos:])
		c.pos += 8
	}
}

// IP walks an IPv4 address as a uint32.
func (c *Codec) IP(v *transport.IP) { c.u32((*uint32)(v)) }

// Str walks a string as a u16 length and its bytes; a longer string is
// cut to 65 535 bytes on the way out.
func (c *Codec) Str(s *string) {
	if !c.decode {
		v := *s
		if len(v) > 0xffff {
			v = v[:0xffff]
		}
		c.buf = append(binary.BigEndian.AppendUint16(c.buf, uint16(len(v))), v...)
		return
	}
	var n uint16
	c.U16(&n)
	if c.need(int(n)) {
		*s = c.internBytes(c.buf[c.pos : c.pos+int(n)])
		c.pos += int(n)
	}
}

// internBytes converts b to a string, returning the shared interned copy
// when one exists (the map lookup converts without allocating).
func (c *Codec) internBytes(b []byte) string {
	if c.intern != nil {
		if s, ok := c.intern[string(b)]; ok {
			return s
		}
		if cost := len(b) + internEntryCost; c.internCost+cost <= internBudget {
			s := string(b)
			c.intern[s] = s
			c.internCost += cost
			return s
		}
	}
	return string(b)
}

// Count walks a collection length and returns it. A count below 0xFFFF is
// one u16; a larger one is 0xFFFF followed by a u32. Decoding, min is the
// fewest bytes one entry can take: a count the remaining bytes cannot hold
// fails the codec (and returns 0) before the caller allocates for it.
func (c *Codec) Count(n, min int) int {
	if !c.decode {
		if n < 0xffff {
			c.buf = append(c.buf, byte(n>>8), byte(n))
		} else {
			c.buf = append(c.buf, 0xff, 0xff, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		}
		return n
	}
	var short uint16
	c.U16(&short)
	v := uint32(short)
	if short == 0xffff {
		c.u32(&v)
	}
	if uint64(v) > uint64((len(c.buf)-c.pos)/min+1) {
		c.short = true
	}
	if c.short {
		return 0
	}
	return int(v)
}

// Member walks one membership entry.
func (c *Codec) Member(m *Member) {
	c.IP(&m.IP)
	c.Str(&m.Node)
	c.u8(&m.Index)
	c.Bool(&m.Admin)
}

// Members walks a membership list; decoding replaces *ms.
//
// A pooled codec first looks for the packet's next bytes among the lists
// it decoded recently; on a match *ms becomes that list's slice, shared
// with every earlier decode of the same bytes. Decoding is a pure function
// of the bytes and a list's length is fixed by its own bytes, so a hit
// accepts exactly what a fresh decode would and yields an equal slice.
// The slice is read-only for everyone it is handed to.
func (c *Codec) Members(ms *[]Member) {
	if c.intern != nil && !c.short {
		for i := range c.lists {
			if s := &c.lists[i]; s.raw != nil && bytes.HasPrefix(c.buf[c.pos:], s.raw) {
				*ms = s.ms
				c.pos += len(s.raw)
				return
			}
		}
	}
	start := c.pos
	n := c.Count(len(*ms), 8) // an entry is at least 8 bytes
	if c.decode {
		*ms = make([]Member, n)
	}
	for i := range *ms {
		c.Member(&(*ms)[i])
	}
	if c.intern != nil && !c.short {
		s := &c.lists[c.nextSlot]
		c.nextSlot = (c.nextSlot + 1) % listSlots
		s.raw = append(s.raw[:0], c.buf[start:c.pos]...)
		s.ms = *ms
	}
}

// ips walks an address list.
func (c *Codec) ips(ips *[]transport.IP) {
	n := c.Count(len(*ips), 4)
	if c.decode {
		*ips = make([]transport.IP, n)
	}
	for i := range *ips {
		c.IP(&(*ips)[i])
	}
}

// blob walks a byte string as a u32 length and its bytes; decoding copies
// them out of the packet.
func (c *Codec) blob(b *[]byte) {
	n := uint32(len(*b))
	c.u32(&n)
	if !c.decode {
		c.buf = append(c.buf, *b...)
	} else if c.need(int(n)) {
		*b = make([]byte, n)
		c.pos += copy(*b, c.buf[c.pos:])
	}
}

// --- one walk per message ---

func (m *Beacon) walk(c *Codec) {
	c.IP(&m.Sender)
	c.Str(&m.Node)
	c.u32(&m.Incarnation)
	c.IP(&m.Leader)
	c.U64(&m.Version)
	c.u32(&m.Members)
	c.Bool(&m.Admin)
}

func (m *Prepare) walk(c *Codec) {
	c.IP(&m.Leader)
	c.U64(&m.Version)
	c.U64(&m.Token)
	c.u8((*byte)(&m.Op))
	c.Members(&m.Members)
}

func (m *PrepareAck) walk(c *Codec) {
	c.IP(&m.From)
	c.IP(&m.Leader)
	c.U64(&m.Version)
	c.U64(&m.Token)
	c.Bool(&m.OK)
}

func (m *Commit) walk(c *Codec) {
	c.IP(&m.Leader)
	c.U64(&m.Version)
	c.U64(&m.Token)
	c.Members(&m.Members)
}

func (m *Abort) walk(c *Codec) {
	c.IP(&m.Leader)
	c.U64(&m.Version)
	c.U64(&m.Token)
}

func (m *JoinRequest) walk(c *Codec) {
	c.IP(&m.From)
	c.Str(&m.Node)
	c.u8(&m.Index)
	c.Bool(&m.Admin)
	c.u32(&m.Incarnation)
}

func (m *MergeOffer) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Version)
	c.Members(&m.Members)
}

func (m *Heartbeat) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Seq)
	c.U64(&m.Version)
	c.IP(&m.Leader)
}

func (m *Suspect) walk(c *Codec) {
	c.IP(&m.Reporter)
	c.IP(&m.Suspect)
	c.U64(&m.Version)
	c.u8((*byte)(&m.Reason))
}

func (m *Probe) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Nonce)
}

func (m *ProbeAck) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Nonce)
	c.IP(&m.Leader)
	c.U64(&m.Version)
}

func (m *Ping) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Nonce)
	c.IP(&m.Leader)
}

func (m *PingAck) walk(c *Codec) {
	c.IP(&m.From)
	c.IP(&m.Target)
	c.U64(&m.Nonce)
}

func (m *PingReq) walk(c *Codec) {
	c.IP(&m.From)
	c.IP(&m.Target)
	c.U64(&m.Nonce)
}

func (m *Report) walk(c *Codec) {
	c.IP(&m.Leader)
	c.Str(&m.Segment)
	c.U64(&m.Version)
	c.U64(&m.Seq)
	c.Bool(&m.Full)
	c.IP(&m.PrevLeader)
	c.U64(&m.PrevVersion)
	c.Bool(&m.Fresh)
	c.Members(&m.Members)
	c.ips(&m.Left)
}

func (m *ReportAck) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Seq)
}

func (m *Disable) walk(c *Codec) {
	c.IP(&m.Target)
	c.Str(&m.Reason)
}

func (m *SubPoll) walk(c *Codec) {
	c.IP(&m.From)
	c.u32(&m.Subgroup)
	c.U64(&m.Nonce)
}

func (m *SubPollAck) walk(c *Codec) {
	c.IP(&m.From)
	c.u32(&m.Subgroup)
	c.U64(&m.Nonce)
	c.u32(&m.Alive)
}

func (m *Evict) walk(c *Codec) {
	c.IP(&m.Leader)
	c.IP(&m.Target)
	c.U64(&m.Version)
}

func (m *ResyncRequest) walk(c *Codec) { c.IP(&m.From) }

func (m *JournalAppend) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Epoch)
	c.U64(&m.Seq)
	c.blob(&m.Payload)
}

func (m *JournalAck) walk(c *Codec) {
	c.IP(&m.From)
	c.U64(&m.Epoch)
	c.U64(&m.Seq)
}
