package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// ObserveTrace returns a flight-recorder sink that folds protocol trace
// records into registry instruments: per-kind event counters, 2PC round
// latency (first Prepare to Commit per transaction), group-size gauges,
// leader churn, and suspicion / false-accusation counts. Install it with
// Recorder.AddSink; both the simulator farm and gsd use it so the same
// instrumentation works in virtual and wall-clock time.
func ObserveTrace(r *Registry) func(trace.Record) {
	type txnKey struct {
		leader transport.IP
		token  uint64
	}
	var mu sync.Mutex
	open := make(map[txnKey]time.Duration)
	return func(rec trace.Record) {
		switch rec.Kind {
		case trace.KBeaconSent:
			r.Inc("beacons_sent_total")
		case trace.KFormed:
			r.Inc("groups_formed_total")
		case trace.KPrepareSent:
			mu.Lock()
			k := txnKey{rec.Group, rec.Token}
			if _, seen := open[k]; !seen {
				if len(open) > 4096 { // bound abandoned rounds
					for stale := range open {
						delete(open, stale)
						break
					}
				}
				open[k] = rec.T
				r.Inc("twopc_rounds_total")
			}
			mu.Unlock()
		case trace.KRetarget:
			r.Inc("twopc_retargets_total")
		case trace.KCommitSent:
			mu.Lock()
			k := txnKey{rec.Group, rec.Token}
			if t0, ok := open[k]; ok {
				delete(open, k)
				r.ObserveDuration("twopc_round", rec.T-t0)
			}
			mu.Unlock()
			r.Inc("twopc_commits_total")
		case trace.KViewCommit:
			r.Inc("view_commits_total")
			// Only the leader's commit describes the group authoritatively.
			if rec.Self == rec.Group {
				r.Set(fmt.Sprintf("group_size{leader=%q}", rec.Group), float64(rec.Count))
			}
		case trace.KLeaderTakeover:
			r.Inc("leader_takeovers_total")
		case trace.KOrphaned:
			r.Inc("orphans_total")
		case trace.KEvicted:
			r.Inc("evictions_total")
		case trace.KSuspicionRaised:
			r.Inc("suspicions_total")
		case trace.KLoopbackFailed:
			r.Inc("loopback_failures_total")
		case trace.KVerdictDead:
			r.Inc("verified_deaths_total")
		case trace.KFalseAccusation:
			r.Inc("false_accusations_total")
		case trace.KReportQueued:
			r.Inc("reports_queued_total")
		case trace.KReportApplied:
			r.Inc("reports_applied_total")
		case trace.KResyncSent:
			r.Inc("resyncs_total")
		case trace.KJournalStreamed:
			r.Inc("journal_streamed_total")
		case trace.KJournalReplayed:
			r.Inc("journal_replays_total")
		case trace.KCentralActivated:
			r.Inc("central_activations_total")
		case trace.KFaultInjected:
			r.Inc("faults_injected_total")
		case trace.KNotifySent:
			r.Inc("notifies_sent_total")
		case trace.KIncidentClosed:
			r.Inc("incidents_closed_total")
		case trace.KServeClean:
			r.Inc("serve_clean_ticks_total")
		case trace.KRxDropped:
			plane, reason, _ := strings.Cut(rec.Detail, " ")
			r.Inc(fmt.Sprintf("rx_dropped_total{plane=%q,reason=%q}", plane, reason))
		}
	}
}
