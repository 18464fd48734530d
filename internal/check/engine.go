// Package check is the simulation-testing subsystem: a FoundationDB-style
// harness that holds the GulfStream protocol to its invariants
// continuously — while chaos is being injected — rather than only at
// quiescence.
//
// It has three parts:
//
//   - an invariant Engine (this file, model.go and checkers.go): one
//     membership model folded from the internal/trace flight recorder's
//     records alone, fed live via a sink or from a parsed dump, with
//     each invariant a predicate over it and each violation reported with the correlated 2PC transaction id
//     ("leader#token"), the simulated timestamp, and a bounded window of
//     surrounding trace records;
//   - a scenario engine (scenario.go): a small composable schedule DSL
//     (kill/restart node, per-mode adapter failure, partition/heal,
//     drop-profile ramp, switch outage, domain move, Central failover)
//     driven by the deterministic sim clock, replayable from a seed;
//   - an explorer and shrinker (shrink.go, internal/exp.Chaos): seed
//     sweeps that, on a violation, bisect the schedule down to a minimal
//     failing scenario re-emitted as schedule text for Parse.
//
// The package deliberately does not import internal/farm: the farm (and
// any future runtime) satisfies the Target and Context interfaces
// structurally, which also lets farm's own tests use the engine without
// an import cycle.
package check

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// Context is the live system state an invariant may consult. Only the
// journal's durability needs it: every other invariant is judged over
// the model the engine folds from the records themselves.
type Context interface {
	// JournalDrift describes how replaying the named node's journal store
	// fails to reproduce its live Central view ("" when consistent, not
	// journaling, or not a Central).
	JournalDrift(node string) string
}

// Violation is one invariant breach caught mid-run.
type Violation struct {
	// Checker names the invariant that fired.
	Checker string
	// Msg describes the breach.
	Msg string
	// Rec is the trace record that triggered it.
	Rec trace.Record
	// Txn is the correlated 2PC transaction id ("leader#token"), empty
	// when the trigger is not transaction-correlated.
	Txn string
	// T is the simulated time of the trigger.
	T time.Duration
	// Window is a bounded window of records surrounding the trigger
	// (the trigger is the last entry).
	Window []trace.Record
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%11v] %s: %s", v.T, v.Checker, v.Msg)
	if v.Txn != "" {
		s += " (txn " + v.Txn + ")"
	}
	return s
}

// Format renders the violation with its surrounding trace window, for
// artifacts and failure messages.
func (v Violation) Format() string {
	var b strings.Builder
	b.WriteString(v.String())
	b.WriteString("\n  trigger: ")
	b.WriteString(v.Rec.String())
	for _, r := range v.Window {
		b.WriteString("\n    ")
		b.WriteString(r.String())
	}
	return b.String()
}

// windowSize bounds how many surrounding records a violation carries.
const windowSize = 24

// maxViolations bounds how many violations the engine retains; a broken
// invariant tends to fire on every subsequent commit and the first few
// are the diagnostic ones.
const maxViolations = 64

// Engine judges trace records against the protocol invariants and
// collects violations.
type Engine struct {
	ctx   Context
	model model
	still []transport.IP // no-dead-in-view's scratch

	window [windowSize]trace.Record
	wn     int // records ever observed

	violations []Violation
	dropped    int
}

// NewEngine builds an engine. ctx is the live system the
// journal-consistent invariant consults; with a nil ctx (a trace read
// back from a dump) that invariant is not judged, and every other one
// is.
func NewEngine(ctx Context) *Engine {
	return &Engine{ctx: ctx, model: model{
		adapters: map[transport.IP]*adapter{},
		views:    map[gvKey]view{},
		sets:     map[trace.Digest][]transport.IP{},
		txns:     map[txnKey]*txn{},
	}}
}

// Attach registers the engine as a sink on the recorder. The recorder
// must be enabled for records to flow.
func (e *Engine) Attach(r *trace.Recorder) { r.AddSink(e.Observe) }

// Observe judges one record and folds it into the model. It is the sink
// callback; it must not be called concurrently (the simulator never
// does), and records must arrive in capture order.
func (e *Engine) Observe(rec trace.Record) {
	r := &e.window[e.wn%windowSize]
	*r = rec
	e.wn++
	e.observe(r)
}

// report files a violation of the named invariant against rec.
func (e *Engine) report(checker string, rec *trace.Record, msg string) {
	if len(e.violations) >= maxViolations {
		e.dropped++
		return
	}
	e.violations = append(e.violations, Violation{
		Checker: checker,
		Msg:     msg,
		Rec:     *rec,
		Txn:     rec.TxnID(),
		T:       rec.T,
		Window:  e.windowCopy(),
	})
}

// windowCopy snapshots the trailing record window, oldest first (the
// trigger record is last: it was appended before the checkers ran).
func (e *Engine) windowCopy() []trace.Record {
	n := e.wn
	if n > windowSize {
		n = windowSize
	}
	out := make([]trace.Record, 0, n)
	for i := e.wn - n; i < e.wn; i++ {
		out = append(out, e.window[i%windowSize])
	}
	return out
}

// Violations returns every breach caught so far, in capture order.
func (e *Engine) Violations() []Violation { return e.violations }

// Dropped reports violations discarded past the retention cap.
func (e *Engine) Dropped() int { return e.dropped }

// Ok reports whether no invariant fired.
func (e *Engine) Ok() bool { return len(e.violations) == 0 && e.dropped == 0 }
