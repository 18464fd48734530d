// Package wire defines the GulfStream on-the-wire protocol: every message
// the daemons, detectors and GulfStream Central exchange, with a compact
// versioned binary codec. The same bytes flow through the simulator and
// the real UDP transport.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// codecVersion is the first byte of every packet.
const codecVersion = 1

// Type identifies a message.
type Type byte

// Message types.
const (
	TBeacon Type = iota + 1
	TPrepare
	TPrepareAck
	TCommit
	TAbort
	TJoinRequest
	TMergeOffer
	THeartbeat
	TSuspect
	TProbe
	TProbeAck
	TPing
	TPingAck
	TPingReq
	TReport
	TReportAck
	TDisable
	TSubPoll
	TSubPollAck
	TEvict
	TResync
	TJournalAppend
	TJournalAck
	tMax
)

var typeNames = [...]string{
	TBeacon:        "beacon",
	TPrepare:       "prepare",
	TPrepareAck:    "prepare-ack",
	TCommit:        "commit",
	TAbort:         "abort",
	TJoinRequest:   "join-request",
	TMergeOffer:    "merge-offer",
	THeartbeat:     "heartbeat",
	TSuspect:       "suspect",
	TProbe:         "probe",
	TProbeAck:      "probe-ack",
	TPing:          "ping",
	TPingAck:       "ping-ack",
	TPingReq:       "ping-req",
	TReport:        "report",
	TReportAck:     "report-ack",
	TDisable:       "disable",
	TSubPoll:       "subpoll",
	TSubPollAck:    "subpoll-ack",
	TEvict:         "evict",
	TResync:        "resync",
	TJournalAppend: "journal-append",
	TJournalAck:    "journal-ack",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// Errors returned by Decode.
var (
	ErrShort      = errors.New("wire: short packet")
	ErrBadVersion = errors.New("wire: unknown codec version")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrTrailing   = errors.New("wire: trailing bytes")
)

// Message is implemented by every wire message.
type Message interface {
	// Type returns the message's wire type.
	Type() Type
	marshal(e *enc)
	unmarshal(d *dec)
}

// Member describes one adapter in an AMG membership list. The node name
// travels with every membership so GulfStream Central can correlate
// adapter state into node state without consulting the database.
type Member struct {
	IP    transport.IP
	Node  string
	Index uint8 // adapter index on its node; by convention 0 = administrative
	Admin bool  // adapter claims to be on the administrative VLAN
}

func (m Member) String() string {
	return fmt.Sprintf("%v(%s/%d)", m.IP, m.Node, m.Index)
}

// Beacon is multicast on the well-known group during discovery and, after
// group formation, by AMG leaders only.
type Beacon struct {
	Sender      transport.IP
	Node        string
	Incarnation uint32       // bumps each daemon restart; stale-message guard
	Leader      transport.IP // 0 while ungrouped; else the sender's AMG leader
	Version     uint64       // AMG membership version (0 while ungrouped)
	Members     uint32       // current AMG size, advisory
	Admin       bool         // sender is flagged as an administrative adapter
}

// Type implements Message.
func (*Beacon) Type() Type { return TBeacon }

// Op distinguishes why a 2PC membership change is happening (diagnostics
// and metrics; the protocol treats all the same).
type Op byte

// Membership-change operations.
const (
	OpForm Op = iota + 1
	OpJoin
	OpMerge
	OpRemove
)

func (o Op) String() string {
	switch o {
	case OpForm:
		return "form"
	case OpJoin:
		return "join"
	case OpMerge:
		return "merge"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Prepare is phase one of the membership two-phase commit. The ordered
// member list doubles as the heartbeat ring layout and the leader
// succession order (paper §2.1, §3).
type Prepare struct {
	Leader  transport.IP
	Version uint64 // version this commit will establish
	Token   uint64 // ties acks/commits to one 2PC round
	Op      Op
	Members []Member // descending-IP order; Members[0] is the leader
}

// Type implements Message.
func (*Prepare) Type() Type { return TPrepare }

// PrepareAck is a member's vote.
type PrepareAck struct {
	From    transport.IP
	Leader  transport.IP
	Version uint64
	Token   uint64
	OK      bool
}

// Type implements Message.
func (*PrepareAck) Type() Type { return TPrepareAck }

// Commit finalizes a prepared membership. It repeats the member list so a
// member that missed the Prepare (or lost its pending state) can install
// the view directly — the leader also uses this as a unicast "view
// refresh" toward members it detects running a stale version.
type Commit struct {
	Leader  transport.IP
	Version uint64
	Token   uint64
	Members []Member
}

// Type implements Message.
func (*Commit) Type() Type { return TCommit }

// Abort cancels a prepared membership.
type Abort struct {
	Leader  transport.IP
	Version uint64
	Token   uint64
}

// Type implements Message.
func (*Abort) Type() Type { return TAbort }

// JoinRequest is sent by an ungrouped adapter directly to a known leader
// (it short-cuts waiting for the next leader beacon).
type JoinRequest struct {
	From        transport.IP
	Node        string
	Index       uint8
	Admin       bool
	Incarnation uint32
}

// Type implements Message.
func (*JoinRequest) Type() Type { return TJoinRequest }

// MergeOffer is sent by an AMG leader to a higher-IP AMG leader it heard
// beaconing on its segment; the higher leader absorbs the offered members
// (paper: "Merging AMGs are led by the AMG leader with the highest IP").
type MergeOffer struct {
	From    transport.IP
	Version uint64
	Members []Member
}

// Type implements Message.
func (*MergeOffer) Type() Type { return TMergeOffer }

// Heartbeat flows around the AMG ring. It carries the sender's view of
// its group identity (leader + version): versions are per-lineage, so the
// leader alone cannot expose a member stuck on a *different* group's view
// — receivers compare leaders too.
type Heartbeat struct {
	From    transport.IP
	Seq     uint64
	Version uint64       // sender's view of the membership version
	Leader  transport.IP // sender's view of its group leader
}

// Type implements Message.
func (*Heartbeat) Type() Type { return THeartbeat }

// SuspectReason explains a suspicion report.
type SuspectReason byte

// Suspicion reasons.
const (
	ReasonMissedHeartbeats SuspectReason = iota + 1
	ReasonProbeTimeout
	ReasonPingTimeout
	ReasonSubgroupDead
	// ReasonStaleView: the subject is alive but heartbeating under a
	// different group identity — it missed a commit and needs a refresh,
	// not a death verification.
	ReasonStaleView
)

func (r SuspectReason) String() string {
	switch r {
	case ReasonMissedHeartbeats:
		return "missed-heartbeats"
	case ReasonProbeTimeout:
		return "probe-timeout"
	case ReasonPingTimeout:
		return "ping-timeout"
	case ReasonSubgroupDead:
		return "subgroup-dead"
	case ReasonStaleView:
		return "stale-view"
	default:
		return fmt.Sprintf("SuspectReason(%d)", byte(r))
	}
}

// Suspect reports a possibly-failed member to the AMG leader.
type Suspect struct {
	Reporter transport.IP
	Suspect  transport.IP
	Version  uint64
	Reason   SuspectReason
}

// Type implements Message.
func (*Suspect) Type() Type { return TSuspect }

// Probe is the leader's direct are-you-alive check before it declares a
// suspected member dead.
type Probe struct {
	From  transport.IP
	Nonce uint64
}

// Type implements Message.
func (*Probe) Type() Type { return TProbe }

// ProbeAck answers a Probe. It carries the responder's current view of
// its own membership (leader + version): a probe verifies liveness, and
// this lets the prober additionally distinguish "alive in my group" from
// "alive but following another leader" — a member that moved on.
type ProbeAck struct {
	From    transport.IP
	Nonce   uint64
	Leader  transport.IP // responder's current AMG leader (0 if ungrouped)
	Version uint64
}

// Type implements Message.
func (*ProbeAck) Type() Type { return TProbeAck }

// Ping is the randomized-detector direct ping (paper §4.2, ref [9]). It
// carries the sender's group identity for the same stale-view detection
// as Heartbeat.
type Ping struct {
	From   transport.IP
	Nonce  uint64
	Leader transport.IP
}

// Type implements Message.
func (*Ping) Type() Type { return TPing }

// PingAck answers a Ping, possibly relayed via a PingReq proxy.
type PingAck struct {
	From   transport.IP // the pinged adapter
	Target transport.IP // original requester (for proxied acks)
	Nonce  uint64
}

// Type implements Message.
func (*PingAck) Type() Type { return TPingAck }

// PingReq asks a proxy to ping Target on the requester's behalf.
type PingReq struct {
	From   transport.IP
	Target transport.IP
	Nonce  uint64
}

// Type implements Message.
func (*PingReq) Type() Type { return TPingReq }

// Report carries an AMG membership delta from a group leader to
// GulfStream Central; deltas keep the steady state silent (paper §2.2).
// A report with Full=true carries the entire membership (sent on
// leadership change and on Central's resync request, i.e. whenever Central
// may have no baseline to apply deltas to).
type Report struct {
	Leader  transport.IP
	Segment string // leader's local hint (adapter index class), advisory
	Version uint64
	Seq     uint64 // per-leader sequence for ack/retransmit
	Full    bool
	// PrevLeader, on a full report, names the group this leadership term
	// supersedes: a successor that took over after verifying its leader's
	// death sets it so Central can mark the departed (typically the dead
	// leader) and rekey the group. Zero otherwise. PrevVersion carries the
	// superseded view's version, disambiguating the reference when the
	// same leader address has since started an unrelated group elsewhere
	// (group keys are leader IPs; lineages are told apart by version).
	PrevLeader  transport.IP
	PrevVersion uint64
	// Fresh, on a full report, marks a lineage break: the sender reformed
	// after total isolation (it was moved or partitioned away) and knows
	// nothing about its previous group's members. Central must not infer
	// departures from any earlier group under this key.
	Fresh   bool
	Members []Member // full membership when Full, else joined members
	Left    []transport.IP
}

// Type implements Message.
func (*Report) Type() Type { return TReport }

// ReportAck acknowledges a Report.
type ReportAck struct {
	From transport.IP
	Seq  uint64
}

// Type implements Message.
func (*ReportAck) Type() Type { return TReportAck }

// Disable orders a daemon to administratively disable one of its adapters
// (Central's response to a topology-verification conflict, paper §2.2).
type Disable struct {
	Target transport.IP
	Reason string
}

// Type implements Message.
func (*Disable) Type() Type { return TDisable }

// SubPoll is the leader's low-frequency liveness poll of a subgroup
// representative (paper §4.2's subgroup heartbeating scheme).
type SubPoll struct {
	From     transport.IP
	Subgroup uint32
	Nonce    uint64
}

// Type implements Message.
func (*SubPoll) Type() Type { return TSubPoll }

// SubPollAck answers a SubPoll with the subgroup's live count.
type SubPollAck struct {
	From     transport.IP
	Subgroup uint32
	Nonce    uint64
	Alive    uint32
}

// Type implements Message.
func (*SubPollAck) Type() Type { return TSubPollAck }

// Evict tells a straggler it is not a member of the sender's group: sent
// by a leader that keeps receiving heartbeat-plane traffic from an
// adapter outside its committed view (a member it dropped while the
// member was unreachable). The evicted adapter abandons its stale view
// and rediscovers the segment, healing the split.
type Evict struct {
	Leader  transport.IP
	Target  transport.IP
	Version uint64 // the leader's current view version
}

// Type implements Message.
func (*Evict) Type() Type { return TEvict }

// ResyncRequest asks daemons to resend full membership reports for every
// group they lead. A (re)activated GulfStream Central multicasts it on
// the administrative segment: the steady state is deliberately silent, so
// a Central that lost its state (fast restart, failover the daemons never
// noticed) must *pull* — it cannot wait for traffic that will never come.
type ResyncRequest struct {
	From transport.IP
}

// Type implements Message.
func (*ResyncRequest) Type() Type { return TResync }

// JournalAppend streams one state-journal record from the active
// GulfStream Central to its warm standby (the next-in-line administrative
// adapter). Payload is an internal/journal-encoded record; Epoch and Seq
// repeat the record's position so the receiver can order and ack without
// decoding. The stream makes failover O(delta): the standby replays its
// journal instead of multicast-pulling every group's full report.
type JournalAppend struct {
	From    transport.IP
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

// Type implements Message.
func (*JournalAppend) Type() Type { return TJournalAppend }

// JournalAck is the standby's cumulative acknowledgement: every record up
// to and including Seq has been applied to its local journal. The active
// Central retransmits from Seq+1 (or restarts with a snapshot record when
// the standby has fallen behind its retained window).
type JournalAck struct {
	From  transport.IP
	Epoch uint64
	Seq   uint64
}

// Type implements Message.
func (*JournalAck) Type() Type { return TJournalAck }

// newByType allocates the zero message for a wire type.
func newByType(t Type) Message {
	switch t {
	case TBeacon:
		return &Beacon{}
	case TPrepare:
		return &Prepare{}
	case TPrepareAck:
		return &PrepareAck{}
	case TCommit:
		return &Commit{}
	case TAbort:
		return &Abort{}
	case TJoinRequest:
		return &JoinRequest{}
	case TMergeOffer:
		return &MergeOffer{}
	case THeartbeat:
		return &Heartbeat{}
	case TSuspect:
		return &Suspect{}
	case TProbe:
		return &Probe{}
	case TProbeAck:
		return &ProbeAck{}
	case TPing:
		return &Ping{}
	case TPingAck:
		return &PingAck{}
	case TPingReq:
		return &PingReq{}
	case TReport:
		return &Report{}
	case TReportAck:
		return &ReportAck{}
	case TDisable:
		return &Disable{}
	case TSubPoll:
		return &SubPoll{}
	case TSubPollAck:
		return &SubPollAck{}
	case TEvict:
		return &Evict{}
	case TResync:
		return &ResyncRequest{}
	case TJournalAppend:
		return &JournalAppend{}
	case TJournalAck:
		return &JournalAck{}
	default:
		return nil
	}
}

// Encode serializes a message, prefixed with version and type bytes.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, 64), m)
}

// encPool recycles encoder state so the append-style API allocates
// nothing beyond what dst itself needs.
var encPool = sync.Pool{New: func() any { return new(enc) }}

// AppendEncode appends m's wire encoding to dst and returns the extended
// slice. With a dst of sufficient capacity the call performs zero
// allocations.
func AppendEncode(dst []byte, m Message) []byte {
	e := encPool.Get().(*enc)
	e.buf = append(dst, codecVersion, byte(m.Type()))
	m.marshal(e)
	out := e.buf
	e.buf = nil
	encPool.Put(e)
	return out
}

// Packet is a pooled encode buffer — the zero-allocation send path for
// the hot planes (beacons, heartbeats, 2PC). The bytes stay valid until
// Free. The intended shape, leaning on the transport contract that sends
// do not retain the payload (see transport.Endpoint):
//
//	pkt := wire.NewPacket(m)
//	_ = ep.Unicast(port, dst, pkt.Bytes())
//	pkt.Free()
type Packet struct {
	e enc
}

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket encodes m into a pooled buffer. Callers must Free the packet
// once the send (or fan-out of sends) sharing its bytes has returned.
func NewPacket(m Message) *Packet {
	p := packetPool.Get().(*Packet)
	p.e.buf = append(p.e.buf[:0], codecVersion, byte(m.Type()))
	m.marshal(&p.e)
	return p
}

// Bytes returns the encoded packet, valid until Free.
func (p *Packet) Bytes() []byte { return p.e.buf }

// Free returns the packet to the pool. The slice returned by Bytes must
// not be used afterwards.
func (p *Packet) Free() { packetPool.Put(p) }

// decPool recycles decoder state. Each pooled decoder keeps its string
// intern table across packets, so node names — the only strings on the
// hot planes — decode to shared copies instead of fresh allocations.
var decPool = sync.Pool{New: func() any { return &dec{intern: make(map[string]string)} }}

// decodeBody unmarshals pkt's body into m using a pooled decoder.
func decodeBody(pkt []byte, m Message) error {
	d := decPool.Get().(*dec)
	d.buf, d.pos, d.err = pkt, 2, nil
	m.unmarshal(d)
	err := d.err
	if err == nil && d.pos != len(pkt) {
		err = ErrTrailing
	}
	d.buf = nil
	decPool.Put(d)
	return err
}

// Decode parses one packet. All trailing garbage is rejected.
func Decode(pkt []byte) (Message, error) {
	if len(pkt) < 2 {
		return nil, ErrShort
	}
	if pkt[0] != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, pkt[0])
	}
	m := newByType(Type(pkt[1]))
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadType, pkt[1])
	}
	if err := decodeBody(pkt, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Peek returns a packet's message type without decoding its body, so a
// receiver can route the common case to DecodeInto with a reused message.
func Peek(pkt []byte) (Type, bool) {
	if len(pkt) < 2 || pkt[0] != codecVersion {
		return 0, false
	}
	t := Type(pkt[1])
	if t == 0 || t >= tMax {
		return 0, false
	}
	return t, true
}

// checkHeader validates a packet's version byte and that it carries a
// message of type t.
func checkHeader(pkt []byte, t Type) error {
	if len(pkt) < 2 {
		return ErrShort
	}
	if pkt[0] != codecVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, pkt[0])
	}
	if Type(pkt[1]) != t {
		return fmt.Errorf("%w: got %d, want %v", ErrBadType, pkt[1], t)
	}
	return nil
}

// DecodeInto parses pkt into the caller's message, which must match the
// packet's wire type. Unlike Decode it allocates nothing for fixed-size
// messages, so hot receive paths (beacons, heartbeats) can decode into a
// long-lived scratch value. On error the message contents are undefined.
func DecodeInto(pkt []byte, m Message) error {
	if b, ok := m.(*Beacon); ok {
		node, err := DecodeBeaconFixed(pkt, b)
		if err == nil {
			b.Node = InternString(node)
		}
		return err
	}
	if err := checkHeader(pkt, m.Type()); err != nil {
		return err
	}
	return decodeBody(pkt, m)
}

// beaconFixed is the byte count of a beacon packet around its node name:
// header (2) + sender (4) + name length (2) + incarnation (4) +
// leader (4) + version (8) + members (4) + admin (1).
const beaconFixed = 29

// DecodeBeaconFixed is the decoder for the highest-rate message on the
// wire: during discovery every adapter hears every segment-mate's beacon
// each interval, and all but the first from each say what the receiver
// already knows. It validates the whole packet exactly as DecodeInto does
// — one length check and straight loads instead of seven sticky-error
// field reads through the generic decoder — and fills every field of b but
// Node, which is left empty; the name's bytes are returned instead, still
// inside pkt, for the receiver to turn into a string (InternString) only if
// it is going to keep it.
func DecodeBeaconFixed(pkt []byte, b *Beacon) (node []byte, err error) {
	if err := checkHeader(pkt, TBeacon); err != nil {
		return nil, err
	}
	if len(pkt) < beaconFixed {
		return nil, ErrShort
	}
	n := int(pkt[6])<<8 | int(pkt[7])
	if len(pkt) != beaconFixed+n {
		if len(pkt) < beaconFixed+n {
			return nil, ErrShort
		}
		return nil, ErrTrailing
	}
	p := 8 + n
	*b = Beacon{
		Sender:      transport.IP(be32(pkt[2:])),
		Incarnation: be32(pkt[p:]),
		Leader:      transport.IP(be32(pkt[p+4:])),
		Version:     be64(pkt[p+8:]),
		Members:     be32(pkt[p+16:]),
		Admin:       pkt[p+20] != 0,
	}
	return pkt[8:p], nil
}

// InternString converts b to a string through the pooled decoders' intern
// tables — the shared copy, when the name has been decoded before.
func InternString(b []byte) string {
	d := decPool.Get().(*dec)
	s := d.internBytes(b)
	decPool.Put(d)
	return s
}

func be32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be64(b []byte) uint64 {
	return uint64(be32(b))<<32 | uint64(be32(b[4:]))
}
