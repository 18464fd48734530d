// Package journal is the durable state journal behind GulfStream Central
// failover. Central's farm view is otherwise memory-only: on leader death
// a successor cold-starts by multicasting ResyncRequest and re-pulling
// every group's full report — a resync storm whose cost grows with farm
// size. The journal turns that O(farm) pull into O(delta) replay: every
// committed state transition (group commits, adapter/node/switch state
// flips, expected-move bookkeeping) is appended as a Record, periodically
// folded into a snapshot, and either persisted (file backend, cmd/gsd) or
// streamed to the next-in-line administrative adapter (warm standby), so
// an elected successor reconstructs the view locally before going active.
package journal

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Kind classifies a journal record.
type Kind uint8

// Record kinds. The numeric values are part of the on-disk and on-wire
// format; append only.
const (
	// RecGroupUpdate carries one group's full committed state (leader,
	// version, reporting source, membership). Emitted whenever the group's
	// membership changes — self-contained, so replay needs no baseline.
	RecGroupUpdate Kind = iota + 1
	// RecGroupRemove drops a group from the view.
	RecGroupRemove
	// RecAdapterFlip records one adapter's liveness transition.
	RecAdapterFlip
	// RecNodeFlip records node-level correlated death/recovery.
	RecNodeFlip
	// RecSwitchFlip records switch-level correlated death/recovery.
	RecSwitchFlip
	// RecMoveExpect registers a Central-initiated move in progress.
	RecMoveExpect
	// RecMoveDone clears an expected move (completed or expired).
	RecMoveDone
	// RecSnapshot carries the entire state; it resets the fold. Stores
	// keep snapshots out-of-band, but the warm-standby stream uses this
	// kind to bootstrap a fresh peer.
	RecSnapshot
)

func (k Kind) String() string {
	switch k {
	case RecGroupUpdate:
		return "group-update"
	case RecGroupRemove:
		return "group-remove"
	case RecAdapterFlip:
		return "adapter-flip"
	case RecNodeFlip:
		return "node-flip"
	case RecSwitchFlip:
		return "switch-flip"
	case RecMoveExpect:
		return "move-expect"
	case RecMoveDone:
		return "move-done"
	case RecSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journaled state transition. Which payload fields are
// meaningful depends on Kind; the codec writes only those. A record is
// immutable once committed or decoded: the store's log, the standby
// stream and the folded state all hold the same Members.
type Record struct {
	Epoch uint64 // activation epoch of the Central that committed this
	Seq   uint64 // dense, monotonically increasing journal position
	Time  time.Duration

	Kind Kind

	// RecGroupUpdate / RecGroupRemove
	Group   transport.IP
	Version uint64
	Src     transport.Addr // reporting daemon's admin address
	Members []wire.Member  // descending-IP order

	// RecAdapterFlip (Member is the subject), RecMoveExpect/Done (Adapter)
	Member  wire.Member
	Alive   bool
	Adapter transport.IP
	DiedAt  time.Duration

	// RecNodeFlip / RecSwitchFlip
	Node string
	Dead bool

	// RecMoveExpect
	Deadline time.Duration

	// RecSnapshot
	Snap *State
}

// GroupState is one group's journaled view.
type GroupState struct {
	Leader  transport.IP
	Version uint64
	Src     transport.Addr
	// Members is strictly descending by IP and read-only: it is shared
	// with the record that installed it (and, in Central, often with the
	// decoded report it came from).
	Members []wire.Member
	// Seq is the journal position of the last record touching this group.
	Seq uint64
	// Epoch is the activation epoch that last touched this group.
	Epoch uint64
	// Streamed marks state received live from the previous active Central
	// in this process lifetime (as opposed to loaded from disk). A
	// successor trusts streamed groups and issues verification resyncs
	// only for the rest.
	Streamed bool
}

// AdapterState is one adapter's journaled liveness.
type AdapterState struct {
	Member wire.Member
	Alive  bool
	Group  transport.IP
	DiedAt time.Duration
}

// State is Central's farm view and the fold of the journal: every record
// committed so far, applied in order. It is everything a successor needs
// to stand up a Central view without a farm-wide resync. It changes only
// by folding a record (Fold, or a Journal's Commit and Ingest).
type State struct {
	Groups        map[transport.IP]*GroupState
	Adapters      map[transport.IP]AdapterState
	DeadNodes     map[string]bool
	DeadSwitches  map[string]bool
	ExpectedMoves map[transport.IP]time.Duration

	// members is the summed length of every group's member list, kept by
	// fold and clone so that size is O(1).
	members int
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Groups:        make(map[transport.IP]*GroupState),
		Adapters:      make(map[transport.IP]AdapterState),
		DeadNodes:     make(map[string]bool),
		DeadSwitches:  make(map[string]bool),
		ExpectedMoves: make(map[transport.IP]time.Duration),
	}
}

// Clone copies a state's tables (snapshots must not alias live maps); the
// read-only member lists are shared.
func (s *State) Clone() *State {
	c := NewState()
	for l, g := range s.Groups {
		gg := *g
		c.Groups[l] = &gg
		c.members += len(g.Members)
	}
	for ip, a := range s.Adapters {
		c.Adapters[ip] = a
	}
	for n, d := range s.DeadNodes {
		c.DeadNodes[n] = d
	}
	for n, d := range s.DeadSwitches {
		c.DeadSwitches[n] = d
	}
	for ip, d := range s.ExpectedMoves {
		c.ExpectedMoves[ip] = d
	}
	return c
}

// size weighs the state in the unit weight counts a record in: one per
// map entry plus one per group member.
func (s *State) size() int {
	return len(s.Groups) + s.members + len(s.Adapters) +
		len(s.DeadNodes) + len(s.DeadSwitches) + len(s.ExpectedMoves)
}

// weight is what a record adds to the log: itself plus its member list.
func (rec Record) weight() int { return 1 + len(rec.Members) }

// Equal compares two states structurally (snapshot+replay equivalence
// tests rely on it).
func (s *State) Equal(o *State) bool {
	if len(s.Groups) != len(o.Groups) || len(s.Adapters) != len(o.Adapters) ||
		len(s.DeadNodes) != len(o.DeadNodes) || len(s.DeadSwitches) != len(o.DeadSwitches) ||
		len(s.ExpectedMoves) != len(o.ExpectedMoves) {
		return false
	}
	for l, g := range s.Groups {
		og := o.Groups[l]
		if og == nil || og.Version != g.Version || og.Src != g.Src || len(og.Members) != len(g.Members) {
			return false
		}
		for i := range g.Members {
			if g.Members[i] != og.Members[i] {
				return false
			}
		}
	}
	for ip, a := range s.Adapters {
		if o.Adapters[ip] != a {
			return false
		}
	}
	for n := range s.DeadNodes {
		if !o.DeadNodes[n] {
			return false
		}
	}
	for n := range s.DeadSwitches {
		if !o.DeadSwitches[n] {
			return false
		}
	}
	for ip, d := range s.ExpectedMoves {
		if o.ExpectedMoves[ip] != d {
			return false
		}
	}
	return true
}

// Fold applies one record to the state.
func (s *State) Fold(rec Record) { s.fold(rec, false) }

// fold applies one record to the state. streamed marks records received
// live over the standby stream (vs. committed locally or loaded).
func (s *State) fold(rec Record, streamed bool) {
	switch rec.Kind {
	case RecGroupUpdate:
		if old := s.Groups[rec.Group]; old != nil {
			s.members -= len(old.Members)
		}
		s.members += len(rec.Members)
		s.Groups[rec.Group] = &GroupState{
			Leader:   rec.Group,
			Version:  rec.Version,
			Src:      rec.Src,
			Members:  rec.Members, // shared: records are immutable
			Seq:      rec.Seq,
			Epoch:    rec.Epoch,
			Streamed: streamed,
		}
	case RecGroupRemove:
		if old := s.Groups[rec.Group]; old != nil {
			s.members -= len(old.Members)
		}
		delete(s.Groups, rec.Group)
	case RecAdapterFlip:
		s.Adapters[rec.Member.IP] = AdapterState{
			Member: rec.Member, Alive: rec.Alive, Group: rec.Group, DiedAt: rec.DiedAt,
		}
	case RecNodeFlip:
		if rec.Dead {
			s.DeadNodes[rec.Node] = true
		} else {
			delete(s.DeadNodes, rec.Node)
		}
	case RecSwitchFlip:
		if rec.Dead {
			s.DeadSwitches[rec.Node] = true
		} else {
			delete(s.DeadSwitches, rec.Node)
		}
	case RecMoveExpect:
		s.ExpectedMoves[rec.Adapter] = rec.Deadline
	case RecMoveDone:
		delete(s.ExpectedMoves, rec.Adapter)
	case RecSnapshot:
		if rec.Snap == nil {
			return
		}
		fresh := rec.Snap.Clone()
		*s = *fresh
		if streamed {
			for _, g := range s.Groups {
				g.Streamed = true
			}
		}
	}
}

// Snapshot bundles a state with the journal position it folds up to.
type Snapshot struct {
	Epoch uint64
	Seq   uint64
	State *State
}

// Store is the append-only persistence behind a Journal. Implementations:
// MemStore (simulation, warm standby) and FileStore (cmd/gsd).
type Store interface {
	// Append persists one record after the current tail.
	Append(rec Record) error
	// SetSnapshot atomically replaces the store's basis with snap and
	// discards all appended records (compaction). The store owns
	// snap.State from here on: the caller hands over a private copy.
	SetSnapshot(snap Snapshot) error
	// Load returns the persisted basis and every record after it. A fresh
	// store returns a nil snapshot state and no records. The returned
	// state is the caller's to fold into.
	Load() (Snapshot, []Record, error)
	// Close releases resources. The Journal calls it exactly once.
	Close() error
}

// Options tunes a Journal.
type Options struct {
	// SnapEvery is the fewest appended records between two snapshots
	// (compaction); see Journal.logged for when one is taken. 0 means
	// DefaultSnapEvery.
	SnapEvery int
}

// DefaultSnapEvery keeps a small state from being re-snapshotted every
// few records.
const DefaultSnapEvery = 256

// Journal manages an append-only store plus its materialized state. It is
// single-goroutine, like everything protocol-side.
type Journal struct {
	store     Store
	st        *State
	epoch     uint64
	seq       uint64
	snapEvery int
	// sinceSnap and tail measure the store's log since its last snapshot:
	// in records, and in weight.
	sinceSnap int
	tail      int
	loaded    bool // store held state at open
}

// New opens a journal over store, replaying any persisted snapshot and
// log tail into the materialized state.
func New(store Store, opts Options) (*Journal, error) {
	if opts.SnapEvery <= 0 {
		opts.SnapEvery = DefaultSnapEvery
	}
	snap, recs, err := store.Load()
	if err != nil {
		return nil, err
	}
	j := &Journal{store: store, st: NewState(), snapEvery: opts.SnapEvery}
	if snap.State != nil {
		j.st = snap.State.Clone() // Clone also totals the member count a decoded state lacks
		j.epoch, j.seq = snap.Epoch, snap.Seq
		j.loaded = true
	}
	for _, rec := range recs {
		j.st.fold(rec, false)
		j.epoch, j.seq = rec.Epoch, rec.Seq
		j.loaded = true
		j.sinceSnap++
		j.tail += rec.weight()
	}
	return j, nil
}

// NewMem is shorthand for an in-memory journal (simulation, standbys).
func NewMem() *Journal {
	j, err := New(NewMemStore(), Options{})
	if err != nil { // MemStore.Load cannot fail
		panic(err)
	}
	return j
}

// State exposes the materialized fold. The Central holding the journal
// adopts it as its view and changes it only through Commit; nothing else
// may mutate it.
func (j *Journal) State() *State { return j.st }

// Epoch returns the current activation epoch.
func (j *Journal) Epoch() uint64 { return j.epoch }

// Seq returns the last journal position.
func (j *Journal) Seq() uint64 { return j.seq }

// Loaded reports whether this journal holds replayable state — from the
// store at open, or ingested over the standby stream since. Only a loaded
// journal can seed a restore on activation.
func (j *Journal) Loaded() bool { return j.loaded }

// BeginEpoch starts a new activation epoch and persists a snapshot of the
// current state as the new regime's basis, compacting the log.
func (j *Journal) BeginEpoch() uint64 {
	j.epoch++
	j.snapshot()
	return j.epoch
}

// Reset discards the materialized state, re-basing the store on an empty
// snapshot at the current position. An activating Central that declines
// to restore (cold start) must call it: its live view starts from
// nothing, and a journal still folding the previous regime's groups
// would diverge from the live state it claims to describe — and leak
// those stale groups into the next standby's bootstrap snapshot.
func (j *Journal) Reset() {
	j.st = NewState()
	j.loaded = false
	j.snapshot()
}

// snapshot re-bases the store on the current state and position, which
// empties its log.
func (j *Journal) snapshot() {
	_ = j.store.SetSnapshot(Snapshot{Epoch: j.epoch, Seq: j.seq, State: j.st.Clone()})
	j.sinceSnap, j.tail = 0, 0
}

// logged accounts for one record appended to the store's log and folded,
// and takes a snapshot once the log outweighs the state it would replace
// (and holds at least SnapEvery records). A snapshot costs O(state), so
// taking one per O(state) of log makes compaction O(1) amortised per unit
// appended, whatever the state's size; and since a log past the floor
// never outweighs the state by more than a record, replay — one snapshot
// load plus the log — stays O(state). Counting members, not just records,
// is what holds that bound when the log is full-membership updates of
// large groups.
func (j *Journal) logged(rec Record) {
	j.sinceSnap++
	j.tail += rec.weight()
	if j.sinceSnap >= j.snapEvery && j.tail >= j.st.size() {
		j.snapshot()
	}
}

// Commit stamps one locally committed record with the next journal
// position, persists it and folds it into State, returning the stamped
// record for streaming. A RecGroupUpdate's Members must be strictly
// descending by IP; the record keeps the slice, so the caller must not
// modify it afterwards.
func (j *Journal) Commit(rec Record) Record {
	j.seq++
	rec.Epoch, rec.Seq = j.epoch, j.seq
	_ = j.store.Append(rec)
	j.st.fold(rec, false)
	j.logged(rec)
	return rec
}

// GroupUpdate commits one group's full state from a member list in any
// order, which it copies.
func (j *Journal) GroupUpdate(now time.Duration, leader transport.IP, version uint64, src transport.Addr, members []wire.Member) Record {
	ms := slices.Clone(members)
	slices.SortFunc(ms, func(a, b wire.Member) int { return cmp.Compare(b.IP, a.IP) })
	return j.Commit(Record{Time: now, Kind: RecGroupUpdate,
		Group: leader, Version: version, Src: src, Members: ms})
}

// SnapshotRecord synthesizes a RecSnapshot of the current state at the
// current position, for bootstrapping a fresh standby over the stream. It
// is not appended locally — the local store already holds this state.
func (j *Journal) SnapshotRecord(now time.Duration) Record {
	return Record{Epoch: j.epoch, Seq: j.seq, Time: now, Kind: RecSnapshot, Snap: j.st.Clone()}
}

// Ingest applies one record received over the standby stream. Records
// must arrive in order: a record is accepted iff it is a snapshot
// (resetting the fold to the sender's position) or the immediate
// successor of the last ingested position. Out-of-order records are
// dropped — the sender retransmits from the cumulative ack. Returns
// whether the record was applied.
func (j *Journal) Ingest(rec Record) bool {
	switch {
	case rec.Kind == RecSnapshot:
		j.st = NewState()
		j.st.fold(rec, true)
		j.epoch, j.seq = rec.Epoch, rec.Seq
		j.loaded = true
		j.snapshot()
		return true
	case rec.Seq == j.seq+1:
		_ = j.store.Append(rec)
		j.st.fold(rec, true)
		j.epoch, j.seq = rec.Epoch, rec.Seq
		j.loaded = true
		j.logged(rec)
		return true
	default:
		return false
	}
}

// Drift replays the store — its snapshot, then its log — into a fresh
// state and compares it, and the position it reaches, with State and the
// journal's position. It describes the divergence, or returns "" when
// replay reproduces the live state exactly: the contract failover relies
// on, since a successor stands up from exactly that replay.
func (j *Journal) Drift() string {
	snap, recs, err := j.store.Load()
	if err != nil {
		return fmt.Sprintf("store unreadable: %v", err)
	}
	st := snap.State
	if st == nil {
		st = NewState()
	}
	epoch, seq := snap.Epoch, snap.Seq
	for _, rec := range recs {
		st.fold(rec, false)
		epoch, seq = rec.Epoch, rec.Seq
	}
	switch {
	case epoch != j.epoch || seq != j.seq:
		return fmt.Sprintf("store replays to position %d/%d, journal is at %d/%d", epoch, seq, j.epoch, j.seq)
	case !st.Equal(j.st):
		return fmt.Sprintf("store (snapshot at %d/%d + %d records) replays to a state unlike the live one",
			snap.Epoch, snap.Seq, len(recs))
	}
	return ""
}

// Close closes the underlying store.
func (j *Journal) Close() error { return j.store.Close() }

// MemStore is the in-memory Store: the simulator's backend and the warm
// standby's default.
type MemStore struct {
	snap Snapshot
	recs []Record
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (m *MemStore) Append(rec Record) error {
	m.recs = append(m.recs, rec)
	return nil
}

// SetSnapshot implements Store.
func (m *MemStore) SetSnapshot(snap Snapshot) error {
	m.snap = snap
	m.recs = nil
	return nil
}

// Load implements Store.
func (m *MemStore) Load() (Snapshot, []Record, error) {
	var snap Snapshot
	if m.snap.State != nil {
		snap = Snapshot{Epoch: m.snap.Epoch, Seq: m.snap.Seq, State: m.snap.State.Clone()}
	}
	return snap, append([]Record(nil), m.recs...), nil
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }
