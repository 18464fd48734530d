package span

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// Topology is what the stitcher needs from the farm: which adapters
// belong to a node, so detection records (keyed by adapter IP) can be
// tied to the incident's subject (keyed by node name).
type Topology interface {
	AdaptersOf(node string) []transport.IP
}

// forever bounds open-ended searches.
const forever = time.Duration(1<<63 - 1)

// Stitch builds lifecycle spans from a merged record chronology (see
// Collector.Records). Incident spans are keyed by Central's incident id
// (one span per KNotifySent correlator); leader-change spans are
// stitched directly from KLeaderTakeover records. topo may be nil when
// no detection records are expected (pure Central dumps). records must
// be non-decreasing in T, as Collector.Records returns them: each stage
// is looked up by its correlator and a binary search on T.
func Stitch(records []trace.Record, topo Topology) []*Span {
	st := newStitcher(records, topo)
	spans := st.incidents()
	spans = append(spans, st.leaderChanges()...)
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start() != b.Start() {
			return a.Start() < b.Start()
		}
		if len(a.Milestones) > 0 && len(b.Milestones) > 0 &&
			a.Milestones[0].Seq != b.Milestones[0].Seq {
			return a.Milestones[0].Seq < b.Milestones[0].Seq
		}
		if a.Central != b.Central {
			return a.Central < b.Central
		}
		return a.Incident < b.Incident
	})
	for i, s := range spans {
		s.Ref = fmt.Sprintf("s%d", i+1)
	}
	return spans
}

type stitcher struct {
	recs []trace.Record
	topo Topology
	// Per-(kind, correlator) lists of indexes into recs, in chronology
	// order: each milestone lookup searches one list, not the records.
	byIP  map[ipKey][]int
	byTok map[tokKey][]int
	byStr map[strKey][]int
}

type ipKey struct {
	kind trace.Kind
	ip   transport.IP
}

type tokKey struct {
	kind trace.Kind
	tok  uint64
}

type strKey struct {
	kind trace.Kind
	s    string
}

// newStitcher indexes, in one pass, every record a milestone lookup can
// hit, under the correlator that lookup asks by.
func newStitcher(records []trace.Record, topo Topology) *stitcher {
	s := &stitcher{recs: records, topo: topo,
		byIP: map[ipKey][]int{}, byTok: map[tokKey][]int{}, byStr: map[strKey][]int{}}
	ip := func(r *trace.Record, addr transport.IP, i int) {
		k := ipKey{r.Kind, addr}
		s.byIP[k] = append(s.byIP[k], i)
	}
	str := func(r *trace.Record, v string, i int) {
		k := strKey{r.Kind, v}
		s.byStr[k] = append(s.byStr[k], i)
	}
	for i := range records {
		switch r := &records[i]; r.Kind {
		case trace.KFaultInjected:
			str(r, r.Node, i)
		case trace.KSuspicionRaised, trace.KProbeSent, trace.KVerdictDead:
			ip(r, r.Peer, i)
		case trace.KPrepareSent, trace.KCommitSent, trace.KReportApplied:
			ip(r, r.Group, i)
		case trace.KViewCommit:
			ip(r, r.Group, i)
			str(r, r.Node, i)
		case trace.KServeBackendDown, trace.KServeBackendUp:
			k := tokKey{r.Kind, r.Token}
			s.byTok[k] = append(s.byTok[k], i)
		case trace.KServeClean:
			str(r, r.Detail, i)
		case trace.KLeaderTakeover:
			ip(r, r.Self, i)
		}
	}
	return s
}

// first returns the index of the first record of list (indexes in
// chronology order) in [from, to] that ok accepts (nil accepts any),
// or -1.
func (s *stitcher) first(list []int, from, to time.Duration, ok func(*trace.Record) bool) int {
	for i := sort.Search(len(list), func(i int) bool { return s.recs[list[i]].T >= from }); i < len(list); i++ {
		r := &s.recs[list[i]]
		if r.T > to {
			break
		}
		if ok == nil || ok(r) {
			return list[i]
		}
	}
	return -1
}

// find is first as a record, nil when there is none.
func (s *stitcher) find(list []int, from, to time.Duration, ok func(*trace.Record) bool) *trace.Record {
	if i := s.first(list, from, to, ok); i >= 0 {
		return &s.recs[i]
	}
	return nil
}

// findLast returns the last record of list in [from, to].
func (s *stitcher) findLast(list []int, from, to time.Duration) *trace.Record {
	i := sort.Search(len(list), func(i int) bool { return s.recs[list[i]].T > to })
	if i > 0 && s.recs[list[i-1]].T >= from {
		return &s.recs[list[i-1]]
	}
	return nil
}

func ms(stage Stage, r *trace.Record) Milestone {
	return Milestone{Stage: stage, T: r.T, Seq: r.Seq, Node: r.Node, Detail: r.Detail}
}

// incidentAgg is one Central incident's raw material: every KNotifySent
// issued under the id, plus the KIncidentClosed record when resolved.
type incidentAgg struct {
	central string
	id      uint64
	subject string
	// kind0 is the first notification's event kind ("node-failed",
	// "move-started", ...), which classifies the span.
	kind0    string
	notifies []*trace.Record
	closed   *trace.Record
}

// notifyKind splits a KNotifySent Detail ("<event-kind> <subject>").
func notifyKind(detail string) (kind, subject string) {
	if i := strings.IndexByte(detail, ' '); i >= 0 {
		return detail[:i], detail[i+1:]
	}
	return detail, ""
}

// incidents stitches one span per Central incident id.
func (s *stitcher) incidents() []*Span {
	type key struct {
		central string
		id      uint64
	}
	byKey := make(map[key]*incidentAgg)
	var order []*incidentAgg
	for i := range s.recs {
		r := &s.recs[i]
		switch r.Kind {
		case trace.KNotifySent:
			k := key{r.Node, r.Token}
			agg := byKey[k]
			if agg == nil {
				kind0, subject := notifyKind(r.Detail)
				agg = &incidentAgg{central: r.Node, id: r.Token, subject: subject, kind0: kind0}
				byKey[k] = agg
				order = append(order, agg)
			}
			agg.notifies = append(agg.notifies, r)
		case trace.KIncidentClosed:
			if agg := byKey[key{r.Node, r.Token}]; agg != nil && agg.closed == nil {
				agg.closed = r
			}
		}
	}

	// floor bounds each subject's backward searches to after its previous
	// incident, so back-to-back incidents don't steal each other's
	// records.
	floor := make(map[string]time.Duration)
	spans := make([]*Span, 0, len(order))
	for _, agg := range order {
		var sp *Span
		switch agg.kind0 {
		case "move-started":
			sp = s.moveSpan(agg)
		case "node-moved":
			sp = s.notifyOnlySpan(agg, KindUnexpectedMove)
		case "switch-failed":
			sp = s.notifyOnlySpan(agg, KindSwitchFailure)
		default:
			sp = s.failureSpan(agg, floor[agg.subject])
		}
		floor[agg.subject] = agg.notifies[0].T
		spans = append(spans, sp)
	}
	return spans
}

// newIncidentSpan seeds the span shell shared by every incident kind.
func newIncidentSpan(agg *incidentAgg, kind string) *Span {
	sp := &Span{
		Kind:     kind,
		Incident: agg.id,
		Central:  agg.central,
		Subject:  agg.subject,
	}
	if agg.closed != nil {
		sp.Closed = true
		sp.ClosedAt = agg.closed.T
	}
	return sp
}

// finish sorts milestones chronologically and records which expected
// stages were never reached.
func (sp *Span) finish(expected ...Stage) {
	sort.SliceStable(sp.Milestones, func(i, j int) bool {
		a, b := sp.Milestones[i], sp.Milestones[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Seq < b.Seq
	})
	for _, st := range expected {
		if sp.Milestone(st) == nil {
			sp.Missing = append(sp.Missing, st)
		}
	}
}

// failureSpan stitches the full detection→reroute pipeline for a node
// or adapter failure incident.
func (s *stitcher) failureSpan(agg *incidentAgg, floor time.Duration) *Span {
	sp := newIncidentSpan(agg, KindFailure)
	open := agg.notifies[0].T
	subject := agg.subject

	// Ground truth: the harness fault that caused it all, when recorded.
	from := floor
	if fault := s.findLast(s.byStr[strKey{trace.KFaultInjected, subject}], floor, open); fault != nil {
		sp.Milestones = append(sp.Milestones, ms(StFault, fault))
		from = fault.T
	}

	// Detection: a multi-adapter subject runs one detection chain per
	// AMG its adapters sat in, and the notification came from whichever
	// chain reached Central's report first — not necessarily the one
	// whose suspicion fired first. Build a candidate chain per suspect
	// adapter (anchored at its first suspicion before the notify) and
	// keep the most complete; the earlier suspicion wins ties, so a
	// single-adapter subject behaves as before.
	var adapters []transport.IP
	if s.topo != nil {
		adapters = s.topo.AdaptersOf(subject)
	}
	var best []Milestone
	tried := map[transport.IP]bool{}
	for {
		next := -1
		for _, a := range adapters {
			if tried[a] {
				continue
			}
			if i := s.first(s.byIP[ipKey{trace.KSuspicionRaised, a}], from, open, nil); i >= 0 && (next < 0 || i < next) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		susp := &s.recs[next]
		tried[susp.Peer] = true
		if chain := s.detectionChain(susp, open); len(chain) > len(best) {
			best = chain
		}
	}
	sp.Milestones = append(sp.Milestones, best...)

	// Notification, and the serving plane's reaction to it.
	sp.Milestones = append(sp.Milestones, ms(StNotify, agg.notifies[0]))
	expected := []Stage{StSuspicion, StProbe, StVerdict, StPrepare, StCommit,
		StView, StReport, StNotify}
	if reroute := s.find(s.byTok[tokKey{trace.KServeBackendDown, agg.id}], open, forever, nil); reroute != nil {
		sp.Milestones = append(sp.Milestones, ms(StReroute, reroute))
		sp.Domain = firstField(reroute.Detail)
		expected = append(expected, StReroute, StClean)
		if clean := s.find(s.byStr[strKey{trace.KServeClean, sp.Domain}], reroute.T, forever, nil); clean != nil {
			sp.Milestones = append(sp.Milestones, ms(StClean, clean))
		}
	}
	sp.finish(expected...)
	return sp
}

// detectionChain builds one suspect adapter's detection→eviction chain
// from its first suspicion record: suspicion → probe → verdict, then
// the 2PC the verifying adapter runs as leader.
func (s *stitcher) detectionChain(susp *trace.Record, to time.Duration) []Milestone {
	out := []Milestone{ms(StSuspicion, susp)}
	suspect, cur := susp.Peer, susp.T
	if probe := s.find(s.byIP[ipKey{trace.KProbeSent, suspect}], cur, to, nil); probe != nil {
		out = append(out, ms(StProbe, probe))
		cur = probe.T
	}
	// Verdict, then the eviction 2PC the verifier runs as leader: its
	// prepare carries Group == the verifying adapter (Self).
	verdict := s.find(s.byIP[ipKey{trace.KVerdictDead, suspect}], cur, to, nil)
	if verdict == nil {
		return out
	}
	out = append(out, ms(StVerdict, verdict))
	return append(out, s.commitChain(verdict.Self, verdict.T, to)...)
}

// commitChain returns the 2PC prepare → commit → view-commit → report
// milestones led by the given adapter, starting no earlier than from.
func (s *stitcher) commitChain(leader transport.IP, from, to time.Duration) []Milestone {
	var out []Milestone
	prepare := s.find(s.byIP[ipKey{trace.KPrepareSent, leader}], from, to, nil)
	if prepare == nil {
		return out
	}
	out = append(out, ms(StPrepare, prepare))
	commit := s.find(s.byIP[ipKey{trace.KCommitSent, prepare.Group}], prepare.T, to, nil)
	if commit == nil {
		return out
	}
	out = append(out, ms(StCommit, commit))
	view := s.find(s.byIP[ipKey{trace.KViewCommit, commit.Group}], commit.T, to, func(r *trace.Record) bool {
		return r.Version == commit.Version
	})
	if view == nil {
		return out
	}
	out = append(out, ms(StView, view))
	if report := s.find(s.byIP[ipKey{trace.KReportApplied, commit.Group}], view.T, to, func(r *trace.Record) bool {
		return r.Version >= commit.Version
	}); report != nil {
		out = append(out, ms(StReport, report))
	}
	return out
}

// moveSpan stitches a planned move: drain → rejoin view → report →
// move-done → restore, with an optional first-clean when the drain cost
// any errors.
func (s *stitcher) moveSpan(agg *incidentAgg) *Span {
	sp := newIncidentSpan(agg, KindPlannedMove)
	open := agg.notifies[0].T
	subject := agg.subject
	sp.Milestones = append(sp.Milestones, ms(StNotify, agg.notifies[0]))

	expected := []Stage{StNotify, StView, StReport, StMoveDone}
	var reroute *trace.Record
	if reroute = s.find(s.byTok[tokKey{trace.KServeBackendDown, agg.id}], open, forever, nil); reroute != nil {
		sp.Milestones = append(sp.Milestones, ms(StReroute, reroute))
		sp.Domain = firstField(reroute.Detail)
		expected = append(expected, StReroute, StRestore)
	}
	// The subject's first view commit after the drain is the rejoin into
	// its new domain's group.
	if view := s.find(s.byStr[strKey{trace.KViewCommit, subject}], open, forever, nil); view != nil {
		sp.Milestones = append(sp.Milestones, ms(StView, view))
		if report := s.find(s.byIP[ipKey{trace.KReportApplied, view.Group}], view.T, forever, func(r *trace.Record) bool {
			return r.Version >= view.Version
		}); report != nil {
			sp.Milestones = append(sp.Milestones, ms(StReport, report))
		}
	}
	for _, n := range agg.notifies {
		if kind, _ := notifyKind(n.Detail); kind == "node-moved" {
			sp.Milestones = append(sp.Milestones, ms(StMoveDone, n))
			break
		}
	}
	if restore := s.find(s.byTok[tokKey{trace.KServeBackendUp, agg.id}], open, forever, nil); restore != nil {
		sp.Milestones = append(sp.Milestones, ms(StRestore, restore))
		if clean := s.find(s.byStr[strKey{trace.KServeClean, sp.Domain}], restore.T, forever, nil); clean != nil {
			sp.Milestones = append(sp.Milestones, ms(StClean, clean))
		}
	}
	sp.finish(expected...)
	return sp
}

// notifyOnlySpan covers incidents whose lifecycle is entirely Central's
// correlation (unexpected moves, switch failures): milestones are the
// notifications themselves.
func (s *stitcher) notifyOnlySpan(agg *incidentAgg, kind string) *Span {
	sp := newIncidentSpan(agg, kind)
	for i, n := range agg.notifies {
		st := StNotify
		if k, _ := notifyKind(n.Detail); i > 0 && k == "node-moved" {
			st = StMoveDone
		}
		sp.Milestones = append(sp.Milestones, ms(st, n))
	}
	sp.finish(StNotify)
	return sp
}

// leaderChanges stitches one trace-only span per takeover: promotion
// followed by the reform 2PC under the new leader. They carry no
// incident id — Central sees only the membership churn — so they are
// not part of the closure audit.
func (s *stitcher) leaderChanges() []*Span {
	var spans []*Span
	for i := range s.recs {
		r := &s.recs[i]
		if r.Kind != trace.KLeaderTakeover {
			continue
		}
		// Bound the chain by this adapter's next takeover, if any.
		to := forever
		mine := s.byIP[ipKey{trace.KLeaderTakeover, r.Self}]
		if j := sort.SearchInts(mine, i); j+1 < len(mine) {
			to = s.recs[mine[j+1]].T
		}
		sp := &Span{Kind: KindLeaderChange, Subject: r.Node}
		sp.Milestones = append(sp.Milestones, ms(StTakeover, r))
		sp.Milestones = append(sp.Milestones, s.commitChain(r.Self, r.T, to)...)
		if rep := sp.Milestone(StReport); rep != nil {
			sp.Closed = true
			sp.ClosedAt = rep.T
		}
		sp.finish(StTakeover, StPrepare, StCommit, StView, StReport)
		spans = append(spans, sp)
	}
	return spans
}

func firstField(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// Audit checks the stitched timeline's invariants: every incident span
// of the final Central regime must close, milestones must be monotone,
// and the per-stage attribution must partition the span exactly — no
// unattributed interval. One finding per violation; empty means every
// incident's story is complete.
//
// Closure is a per-regime promise: a Central that deactivates freezes
// its incident map, so its open incidents can never close. The regime
// boundaries come from the trace itself: KCentralActivated opens a
// central's regime, KCentralDeactivated ends it (regimes from different
// hosts may overlap during reconvergence — a restored standby can
// activate before the incumbent notices and resigns, and the incumbent
// may even outlive the pretender). Only incidents opened by a central
// that is still active at the end of the records, during its final
// activation, are expected to close. When the records carry no
// activation at all (synthetic streams, single-process dumps), every
// incident is audited.
func Audit(records []trace.Record, topo Topology) []string {
	var out []string
	sawActivation := false
	active := map[string]bool{}
	lastAct := map[string]time.Duration{}
	for i := range records {
		switch r := &records[i]; r.Kind {
		case trace.KCentralActivated:
			sawActivation = true
			active[r.Node] = true
			lastAct[r.Node] = r.T
		case trace.KCentralDeactivated:
			active[r.Node] = false
		}
	}
	for _, sp := range Stitch(records, topo) {
		if sp.Incident != 0 && !sp.Closed {
			open := sp.Start()
			if m := sp.Milestone(StNotify); m != nil {
				open = m.T
			}
			finalRegime := !sawActivation ||
				(active[sp.Central] && open >= lastAct[sp.Central])
			if finalRegime {
				out = append(out, fmt.Sprintf(
					"span: incident %d (%s %s) opened at %v never closed",
					sp.Incident, sp.Kind, sp.Subject, open))
			}
		}
		if !sp.Monotone() {
			out = append(out, fmt.Sprintf(
				"span: %s %s milestones not monotone", sp.Kind, sp.Subject))
		}
		var sum time.Duration
		for _, sd := range sp.StageDurations() {
			sum += sd.D
		}
		if sum != sp.Total() {
			out = append(out, fmt.Sprintf(
				"span: %s %s stage durations sum to %v, span total is %v",
				sp.Kind, sp.Subject, sum, sp.Total()))
		}
	}
	return out
}
