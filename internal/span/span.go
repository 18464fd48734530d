// Package span is the causal timeline layer: it stitches the flight
// recorder's per-transition records into end-to-end lifecycle spans —
// one span per incident (a node death, a planned domain move, a leader
// change) covering everything from the ground-truth fault instant
// through suspicion, probe, verdict, the 2PC membership commit, the
// committed view, Central's report apply and notification, the serving
// plane's reroute, and the first clean client request.
//
// Three correlators tie the stages together:
//
//   - Central's incident id (event.Event.Incident, mirrored into
//     KNotifySent/KIncidentClosed records and the balancer's
//     KServeBackendDown/Up records);
//   - the leader and time linking prepare → commit: the first commit
//     the prepare's leader sends after it (not the round token, which a
//     retarget re-mints mid-round);
//   - the group incarnation (Group + Version) linking commit → view
//     commit → report apply.
//
// Records come from a Collector (one source per recorder, merged in
// deterministic sim-time order) and spans feed per-stage latency
// histograms (Observe) — the instrument every notification-path and
// detection optimization is measured against.
package span

import (
	"fmt"
	"time"
)

// Stage labels one milestone of a lifecycle span.
type Stage uint8

// Stages, in the canonical failure-pipeline order. Move and
// leader-change spans use subsets (and StMoveDone/StRestore); a span's
// milestone list is always ordered by time, not by stage number.
const (
	// StFault: the harness disturbed the farm (KFaultInjected) — ground
	// truth, before any daemon noticed.
	StFault Stage = iota + 1
	// StSuspicion: a detector first reported one of the subject's
	// adapters silent.
	StSuspicion
	// StProbe: a verification probe went to the suspect.
	StProbe
	// StVerdict: verification declared the suspect dead.
	StVerdict
	// StTakeover: the successor promoted itself after verifying the
	// leader's death (leader-change spans).
	StTakeover
	// StPrepare: the verifier opened the eviction/reform 2PC round.
	StPrepare
	// StCommit: the leader committed the round.
	StCommit
	// StView: the new membership view was finalized.
	StView
	// StReport: Central applied the report carrying the change.
	StReport
	// StNotify: Central published the incident notification.
	StNotify
	// StReroute: the balancer pulled the subject out of rotation (or
	// drained it, for a planned move).
	StReroute
	// StMoveDone: Central correlated the move's completion (NodeMoved).
	StMoveDone
	// StRestore: the balancer returned the subject to rotation.
	StRestore
	// StClean: the affected domain served its first error-free tick.
	StClean

	stageMax
)

var stageNames = [...]string{
	StFault:     "fault",
	StSuspicion: "suspicion",
	StProbe:     "probe",
	StVerdict:   "verdict",
	StTakeover:  "takeover",
	StPrepare:   "2pc-prepare",
	StCommit:    "2pc-commit",
	StView:      "view-commit",
	StReport:    "report",
	StNotify:    "notify",
	StReroute:   "reroute",
	StMoveDone:  "move-done",
	StRestore:   "restore",
	StClean:     "first-clean",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// MarshalText renders the stage name into JSON documents.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Span kinds.
const (
	KindFailure        = "failure"
	KindPlannedMove    = "planned-move"
	KindUnexpectedMove = "unexpected-move"
	KindSwitchFailure  = "switch-failure"
	KindLeaderChange   = "leader-change"
)

// Milestone is one reached stage: which record hit it, when, and where.
type Milestone struct {
	Stage Stage `json:"stage"`
	// T is the capture instant; Seq breaks ties deterministically.
	T   time.Duration `json:"t"`
	Seq uint64        `json:"seq"`
	// Node is the node that recorded the underlying transition.
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Span is one stitched incident lifecycle.
type Span struct {
	// Ref is a stable display handle ("s1", "s2", ... in start order).
	Ref string `json:"ref"`
	// Kind classifies the incident: failure, planned-move,
	// unexpected-move, switch-failure, leader-change.
	Kind string `json:"kind"`
	// Incident is Central's id (0 for trace-only spans such as leader
	// changes); Central names the issuing instance's hosting node.
	Incident uint64 `json:"incident,omitempty"`
	Central  string `json:"central,omitempty"`
	// Subject is the node (or switch) the incident is about.
	Subject string `json:"subject"`
	// Domain is the serving domain the reroute touched, when one did.
	Domain string `json:"domain,omitempty"`
	// Closed reports that Central resolved the incident; ClosedAt is
	// when (meaningful only when Closed). Trace-only spans are Closed
	// when their final expected milestone was found.
	Closed   bool          `json:"closed"`
	ClosedAt time.Duration `json:"closed_at,omitempty"`
	// Milestones, ordered by (T, Seq).
	Milestones []Milestone `json:"milestones"`
	// Missing lists expected-but-unreached stages (empty = complete).
	Missing []Stage `json:"missing,omitempty"`
}

// Start returns the span's first milestone instant (0 when empty).
func (s *Span) Start() time.Duration {
	if len(s.Milestones) == 0 {
		return 0
	}
	return s.Milestones[0].T
}

// End returns the span's last milestone instant.
func (s *Span) End() time.Duration {
	if len(s.Milestones) == 0 {
		return 0
	}
	return s.Milestones[len(s.Milestones)-1].T
}

// Total is the end-to-end duration, first milestone to last.
func (s *Span) Total() time.Duration { return s.End() - s.Start() }

// Complete reports that every expected stage was reached.
func (s *Span) Complete() bool { return len(s.Missing) == 0 }

// Monotone reports that the milestones never step backward in time —
// with Complete, the "gap-free" property: stage durations are diffs of
// consecutive milestones, so they partition [Start, End] exactly, with
// no unattributed interval.
func (s *Span) Monotone() bool {
	for i := 1; i < len(s.Milestones); i++ {
		if s.Milestones[i].T < s.Milestones[i-1].T {
			return false
		}
	}
	return true
}

// StageDuration is the latency attributed to reaching one stage from
// the previous milestone.
type StageDuration struct {
	Stage Stage         `json:"stage"`
	D     time.Duration `json:"d"`
}

// StageDurations attributes the span's total latency across its stages:
// element i is milestone i+1's stage and its distance from milestone i.
// The durations sum to Total exactly.
func (s *Span) StageDurations() []StageDuration {
	if len(s.Milestones) < 2 {
		return nil
	}
	out := make([]StageDuration, 0, len(s.Milestones)-1)
	for i := 1; i < len(s.Milestones); i++ {
		out = append(out, StageDuration{
			Stage: s.Milestones[i].Stage,
			D:     s.Milestones[i].T - s.Milestones[i-1].T,
		})
	}
	return out
}

// Milestone returns the reached milestone for a stage (nil when the
// stage was not reached).
func (s *Span) Milestone(st Stage) *Milestone {
	for i := range s.Milestones {
		if s.Milestones[i].Stage == st {
			return &s.Milestones[i]
		}
	}
	return nil
}

// String renders a one-line summary.
func (s *Span) String() string {
	state := "OPEN"
	if s.Closed {
		state = "closed"
	}
	return fmt.Sprintf("%s %s %s [%v +%v] %d milestones (%s)",
		s.Ref, s.Kind, s.Subject, s.Start(), s.Total(), len(s.Milestones), state)
}
