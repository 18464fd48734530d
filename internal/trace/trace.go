// Package trace is the protocol flight recorder: a typed, structured
// record for every GulfStream state transition — beacons, two-phase
// membership commits, suspicion → verification → recommit, reports,
// journal streaming, Central failover — captured in a bounded ring
// buffer that can be dumped on demand (gsd's debug endpoint, gsctl's
// trace command) or automatically when a failure-class record lands.
//
// Records carry two correlation axes:
//
//   - a 2PC transaction id (Group = the committing leader, Token = the
//     leader-issued round token), tying Prepare/PrepareAck/Commit/Abort
//     records of one membership change together across daemons;
//   - a group incarnation (Group = lineage leader, Version = committed
//     view version), tying every record to the view it happened under.
//
// The recorder is safe for concurrent use; Record on a nil recorder or
// a disabled recorder is a cheap no-op, so protocol code is instrumented
// unconditionally.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds, one per protocol state transition.
const (
	// KBeaconSent: a discovery/leader beacon left this adapter.
	KBeaconSent Kind = iota + 1
	// KBeaconHeard: a beacon from Peer arrived.
	KBeaconHeard
	// KFormed: the beacon phase ended with this adapter as the highest
	// IP heard; Count carries the formation attempt size.
	KFormed
	// KPrepareSent: the leader opened (or retransmitted) a 2PC round.
	KPrepareSent
	// KPrepareRecv: a member received a Prepare; Detail flags rejection.
	KPrepareRecv
	// KPrepareAck: the leader received one member's vote.
	KPrepareAck
	// KCommitSent: the leader committed the round.
	KCommitSent
	// KCommitRecv: a member installed a committed view.
	KCommitRecv
	// KAbortRecv: a member dropped a pending view on the leader's Abort.
	KAbortRecv
	// KRetarget: a 2PC round restarted against a reduced membership.
	KRetarget
	// KViewCommit: an adapter finalized a membership view (both roles);
	// Group+Version identify the committed incarnation.
	KViewCommit
	// KLeaderTakeover: the successor promoted itself after verifying the
	// leader's death (Peer = the old leader).
	KLeaderTakeover
	// KOrphaned: the adapter lost its whole group and reformed fresh.
	KOrphaned
	// KEvicted: a leader's Evict made this adapter abandon a stale view.
	KEvicted
	// KSuspicionRaised: this daemon's detector reported Peer silent
	// (after the loopback self-test); Detail carries the reason.
	KSuspicionRaised
	// KSuspicionRecv: a Suspect report about Peer arrived.
	KSuspicionRecv
	// KLoopbackFailed: the loopback self-test failed; the suspicion was
	// swallowed (the §3 false-report guard).
	KLoopbackFailed
	// KProbeSent: a verification probe went to Peer (Token = nonce).
	KProbeSent
	// KVerdictDead: verification declared Peer dead.
	KVerdictDead
	// KVerdictAlive: verification found Peer alive (Group/Version carry
	// its self-declared membership).
	KVerdictAlive
	// KFalseAccusation: a leader verified a suspect alive and still in
	// the group — the report was false and is ignored (paper §3).
	KFalseAccusation
	// KReportQueued: a leader queued a membership report for Central
	// (Token = report seq; Detail full|delta).
	KReportQueued
	// KReportAcked: Central acknowledged report Token.
	KReportAcked
	// KReportApplied: Central applied report Token from Peer.
	KReportApplied
	// KResyncSent: Central asked for full reports (Detail has scope).
	KResyncSent
	// KJournalStreamed: the active Central streamed journal record Token
	// to the warm standby Peer.
	KJournalStreamed
	// KJournalIngested: a standby ingested streamed journal record Token.
	KJournalIngested
	// KJournalReplayed: an activating Central rebuilt its view from the
	// journal instead of a multicast resync pull.
	KJournalReplayed
	// KCentralActivated: this daemon became GulfStream Central.
	KCentralActivated
	// KCentralDeactivated: Central leadership was lost.
	KCentralDeactivated
	// KServeBackendDown: the serving plane's balancer pulled backend Node
	// out of rotation (failure notification, planned-move drain, or
	// verification quarantine — Detail says which).
	KServeBackendDown
	// KServeBackendUp: the balancer returned backend Node to rotation for
	// the domain in Detail.
	KServeBackendUp
	// KServeMisroute: Count requests for the domain in Detail resolved
	// against ground truth as errors (routed to Node, or unrouted when
	// Node is empty).
	KServeMisroute
	// KFaultInjected: the harness injected a fault (or repair) against
	// Node — the ground-truth instant a lifecycle span starts from.
	// Detail names the fault ("kill", "restart", "surprise-move <dom>").
	KFaultInjected
	// KNotifySent: Central published an incident-correlated notification.
	// Node is the hosting Central's node, Token the incident id, and
	// Detail is "<event-kind> <subject>" (the subject node or switch).
	KNotifySent
	// KIncidentClosed: Central resolved an incident — the subject
	// recovered, completed its move, or its switch came back. Token is
	// the incident id, Detail the subject.
	KIncidentClosed
	// KServeClean: a domain's request stream went clean again — the first
	// tick with zero errors after a tick that had some. Detail is the
	// domain, Count the tick's request count.
	KServeClean
	// KRxDropped: a packet arriving on Self failed to decode and was
	// dropped. Detail is "<plane> <reason>": the protocol plane it arrived
	// on (beacon, member, heartbeat, report, journal) and what was wrong
	// with it (short, trailing, bad-version, bad-type).
	KRxDropped
	// KStarted: the adapter (re)started, ungrouped; Token is the daemon
	// incarnation.
	KStarted
	// KDeathCommitted: a leader committed a round that removed Peer as a
	// verified death (Group/Version/Token are the round's). Traced only
	// when the removal commits: an isolation abort traces none.
	KDeathCommitted

	kindMax
)

var kindNames = [...]string{
	KBeaconSent:         "beacon-sent",
	KBeaconHeard:        "beacon-heard",
	KFormed:             "formed",
	KPrepareSent:        "2pc-prepare-sent",
	KPrepareRecv:        "2pc-prepare-recv",
	KPrepareAck:         "2pc-prepare-ack",
	KCommitSent:         "2pc-commit-sent",
	KCommitRecv:         "2pc-commit-recv",
	KAbortRecv:          "2pc-abort-recv",
	KRetarget:           "2pc-retarget",
	KViewCommit:         "view-commit",
	KLeaderTakeover:     "leader-takeover",
	KOrphaned:           "orphaned",
	KEvicted:            "evicted",
	KSuspicionRaised:    "suspicion-raised",
	KSuspicionRecv:      "suspicion-recv",
	KLoopbackFailed:     "loopback-failed",
	KProbeSent:          "probe-sent",
	KVerdictDead:        "verdict-dead",
	KVerdictAlive:       "verdict-alive",
	KFalseAccusation:    "false-accusation",
	KReportQueued:       "report-queued",
	KReportAcked:        "report-acked",
	KReportApplied:      "report-applied",
	KResyncSent:         "resync-sent",
	KJournalStreamed:    "journal-streamed",
	KJournalIngested:    "journal-ingested",
	KJournalReplayed:    "journal-replayed",
	KCentralActivated:   "central-activated",
	KCentralDeactivated: "central-deactivated",
	KServeBackendDown:   "serve-backend-down",
	KServeBackendUp:     "serve-backend-up",
	KServeMisroute:      "serve-misroute",
	KFaultInjected:      "fault-injected",
	KNotifySent:         "notify-sent",
	KIncidentClosed:     "incident-closed",
	KServeClean:         "serve-clean",
	KRxDropped:          "rx-dropped",
	KStarted:            "started",
	KDeathCommitted:     "death-committed",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FailureKinds are the transitions that indicate something went wrong —
// the default trigger set for the recorder's automatic dump.
func FailureKinds() []Kind {
	return []Kind{KOrphaned, KEvicted, KLoopbackFailed, KVerdictDead,
		KFalseAccusation, KLeaderTakeover, KCentralDeactivated}
}

// Record is one protocol state transition. All fields are fixed-size or
// pre-existing strings, so capturing a record never allocates.
type Record struct {
	// Seq is the recorder-assigned capture order (1-based, monotonic).
	Seq uint64
	// T is the daemon clock at capture (virtual time under simulation).
	T time.Duration
	// Kind classifies the transition.
	Kind Kind
	// Node is the recording daemon's node name.
	Node string
	// Self is the adapter the transition happened on (0 if node-level).
	Self transport.IP
	// Peer is the other party, when there is one.
	Peer transport.IP
	// Group is the AMG lineage leader this record belongs to: for 2PC
	// records the committing leader, for view records the view's leader.
	Group transport.IP
	// Version is the group incarnation (committed or proposed view
	// version) the record belongs to.
	Version uint64
	// Token is the per-transaction correlation id: the 2PC round token
	// for membership-change records, the probe nonce for verification
	// records, the report sequence number for reporting records.
	Token uint64
	// Count is a small numeric payload: the view size for KViewCommit,
	// the formation-attempt size for KFormed, the reduced target size
	// for KRetarget, restored groups for KJournalReplayed.
	Count uint32
	// Detail is optional human-oriented context (reason, flags).
	Detail string
}

// TxnID renders the record's 2PC transaction id ("leader#token"), empty
// when the record is not transaction-correlated.
func (r Record) TxnID() string {
	if r.Token == 0 || r.Group == 0 {
		return ""
	}
	return fmt.Sprintf("%v#%d", r.Group, r.Token)
}

// String renders one line for consoles and dumps.
func (r Record) String() string {
	s := fmt.Sprintf("[%11v] %-18s %s", r.T, r.Kind, r.Node)
	if r.Self != 0 {
		s += " self=" + r.Self.String()
	}
	if r.Peer != 0 {
		s += " peer=" + r.Peer.String()
	}
	if r.Group != 0 {
		s += " group=" + r.Group.String()
	}
	if r.Version != 0 {
		s += fmt.Sprintf(" v%d", r.Version)
	}
	if r.Token != 0 {
		s += fmt.Sprintf(" tok=%d", r.Token)
	}
	if r.Count != 0 {
		s += fmt.Sprintf(" n=%d", r.Count)
	}
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// recordJSON is the dump shape: IPs dotted-quad, kind named, zero fields
// omitted. Building it allocates, but only at dump time — never on the
// capture path.
type recordJSON struct {
	Seq     uint64  `json:"seq"`
	T       float64 `json:"t_sec"`
	Kind    string  `json:"kind"`
	Node    string  `json:"node,omitempty"`
	Self    string  `json:"self,omitempty"`
	Peer    string  `json:"peer,omitempty"`
	Group   string  `json:"group,omitempty"`
	Version uint64  `json:"version,omitempty"`
	Token   uint64  `json:"token,omitempty"`
	Count   uint32  `json:"count,omitempty"`
	Txn     string  `json:"txn,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (r Record) MarshalJSON() ([]byte, error) {
	j := recordJSON{
		Seq: r.Seq, T: r.T.Seconds(), Kind: r.Kind.String(),
		Node: r.Node, Version: r.Version, Token: r.Token,
		Count: r.Count, Txn: r.TxnID(), Detail: r.Detail,
	}
	if r.Self != 0 {
		j.Self = r.Self.String()
	}
	if r.Peer != 0 {
		j.Peer = r.Peer.String()
	}
	if r.Group != 0 {
		j.Group = r.Group.String()
	}
	return json.Marshal(j)
}

// Recorder is the bounded flight recorder. The zero value is unusable;
// build one with New. All methods are safe for concurrent use and safe
// on a nil receiver (no-ops), so instrumentation costs one predictable
// atomic load when tracing is off.
type Recorder struct {
	enabled atomic.Bool

	mu    sync.Mutex
	buf   []Record // ring storage, len == capacity
	total uint64   // records ever captured; buf index = (seq-1) % cap
	sinks []func(Record)

	dumpMask kindSet // bitset of Kinds triggering auto-dump
	dumpFn   func(trigger Record, recent []Record)
}

// kindSet is a bitset over the whole Kind space. Kind is uint8, so four
// words cover every possible value — a single uint64 mask silently
// ignored kinds >= 64, which the kind table has since outgrown.
type kindSet [4]uint64

func (s *kindSet) add(k Kind)      { s[k>>6] |= 1 << (k & 63) }
func (s *kindSet) has(k Kind) bool { return s[k>>6]&(1<<(k&63)) != 0 }

// DefaultCapacity is the ring size used when New gets cap <= 0.
const DefaultCapacity = 8192

// New returns an enabled recorder retaining the last capacity records.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{buf: make([]Record, capacity)}
	r.enabled.Store(true)
	return r
}

// Enable turns capture on or off. Disabled capture is a single atomic
// load per call site.
func (r *Recorder) Enable(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether capture is on.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Cap returns the ring capacity (0 for a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many records were ever captured.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many captured records the ring has already
// overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// AddSink registers fn to observe every captured record (metrics
// bridges, log taps). Sinks run synchronously on the capture path, after
// the ring append, outside the recorder lock.
func (r *Recorder) AddSink(fn func(Record)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, fn)
	r.mu.Unlock()
}

// AutoDump arms the automatic dump: when a record of one of the given
// kinds (FailureKinds() if none are named) is captured, fn receives the
// trigger and a snapshot of the ring at that instant. fn runs on the
// capture path — keep it cheap or hand off.
func (r *Recorder) AutoDump(fn func(trigger Record, recent []Record), kinds ...Kind) {
	if r == nil {
		return
	}
	if len(kinds) == 0 {
		kinds = FailureKinds()
	}
	var mask kindSet
	for _, k := range kinds {
		mask.add(k)
	}
	r.mu.Lock()
	r.dumpMask = mask
	r.dumpFn = fn
	r.mu.Unlock()
}

// Record captures one transition. The caller fills every field except
// Seq, which the recorder assigns.
func (r *Recorder) Record(rec Record) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.total++
	rec.Seq = r.total
	r.buf[(rec.Seq-1)%uint64(len(r.buf))] = rec
	sinks := r.sinks
	var dump func(Record, []Record)
	var recent []Record
	if r.dumpFn != nil && r.dumpMask.has(rec.Kind) {
		dump = r.dumpFn
		recent = r.snapshotLocked()
	}
	r.mu.Unlock()
	for _, fn := range sinks {
		fn(rec)
	}
	if dump != nil {
		dump(rec, recent)
	}
}

// snapshotLocked copies the retained records oldest-first. Caller holds mu.
func (r *Recorder) snapshotLocked() []Record {
	n := r.total
	capN := uint64(len(r.buf))
	if n > capN {
		n = capN
	}
	out := make([]Record, 0, n)
	start := r.total - n // seq of oldest retained record, minus one
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%capN])
	}
	return out
}

// Snapshot copies the retained records, oldest first.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Filter returns the retained records matching pred, oldest first.
func (r *Recorder) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, rec := range r.Snapshot() {
		if pred(rec) {
			out = append(out, rec)
		}
	}
	return out
}

// dumpJSON is the envelope WriteJSON emits.
type dumpJSON struct {
	Total   uint64   `json:"total"`
	Dropped uint64   `json:"dropped"`
	Cap     int      `json:"capacity"`
	Records []Record `json:"records"`
}

// WriteJSON dumps the retained records as one JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	d := dumpJSON{Total: r.Total(), Dropped: r.Dropped(), Cap: r.Cap(), Records: r.Snapshot()}
	if d.Records == nil {
		d.Records = []Record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Txn is the correlated timeline of one 2PC transaction: every record
// carrying the same (leader, token) pair, in capture order.
type Txn struct {
	Leader  transport.IP
	Token   uint64
	Records []Record
}

// ID renders the transaction id ("leader#token").
func (t Txn) ID() string { return fmt.Sprintf("%v#%d", t.Leader, t.Token) }

// twoPCKinds are the record kinds that participate in 2PC correlation.
var twoPCKinds = map[Kind]bool{
	KPrepareSent: true, KPrepareRecv: true, KPrepareAck: true,
	KCommitSent: true, KCommitRecv: true, KAbortRecv: true, KRetarget: true,
}

// Txns groups 2PC records by transaction, ordered by each transaction's
// first capture.
func Txns(records []Record) []Txn {
	type key struct {
		leader transport.IP
		token  uint64
	}
	idx := make(map[key]int)
	var out []Txn
	for _, rec := range records {
		if !twoPCKinds[rec.Kind] || rec.Token == 0 || rec.Group == 0 {
			continue
		}
		k := key{rec.Group, rec.Token}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Txn{Leader: k.leader, Token: k.token})
		}
		out[i].Records = append(out[i].Records, rec)
	}
	return out
}
