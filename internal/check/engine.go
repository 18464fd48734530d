// Package check is the simulation-testing subsystem: a FoundationDB-style
// harness that holds the GulfStream protocol to its invariants
// continuously — while chaos is being injected — rather than only at
// quiescence.
//
// It has three parts:
//
//   - an invariant Engine (this file and checkers.go): pluggable checkers
//     fed live from the internal/trace flight recorder via a sink, each
//     violation reported with the correlated 2PC transaction id
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

	"repro/internal/amg"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Context is the live system state a checker may consult when a record
// arrives. Because trace sinks run synchronously on the capture path —
// and commitView installs the view before tracing KViewCommit — the
// state visible here is exactly the state the record describes.
type Context interface {
	// ViewOf returns the committed membership of the adapter at ip.
	ViewOf(ip transport.IP) (amg.Membership, bool)
	// SegmentOf resolves an adapter's current broadcast segment from
	// scratch (the switch fabric's authoritative answer).
	SegmentOf(ip transport.IP) (string, bool)
	// JournalDrift describes the divergence between the named node's
	// journal fold and its live Central state ("" when consistent, not
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

// Checker is one pluggable invariant. Observe is called for every
// captured trace record, in capture order, from a single goroutine (the
// simulator is single-threaded); report files a violation against rec.
type Checker interface {
	Name() string
	Observe(ctx Context, rec trace.Record, report func(msg string))
}

// windowSize bounds how many surrounding records a violation carries.
const windowSize = 24

// maxViolations bounds how many violations the engine retains; a broken
// invariant tends to fire on every subsequent commit and the first few
// are the diagnostic ones.
const maxViolations = 64

// Engine fans trace records out to its checkers and collects violations.
type Engine struct {
	ctx      Context
	checkers []Checker

	window [windowSize]trace.Record
	wn     int // records ever observed

	violations []Violation
	dropped    int
}

// NewEngine builds an engine over ctx. With no checkers, All() is used.
func NewEngine(ctx Context, checkers ...Checker) *Engine {
	if len(checkers) == 0 {
		checkers = All()
	}
	return &Engine{ctx: ctx, checkers: checkers}
}

// Attach registers the engine as a sink on the recorder. The recorder
// must be enabled for records to flow.
func (e *Engine) Attach(r *trace.Recorder) { r.AddSink(e.Observe) }

// Observe feeds one record through every checker. It is the sink
// callback; it must not be called concurrently (the simulator never
// does).
func (e *Engine) Observe(rec trace.Record) {
	e.window[e.wn%windowSize] = rec
	e.wn++
	for _, c := range e.checkers {
		name := c.Name()
		c.Observe(e.ctx, rec, func(msg string) { e.report(name, msg, rec) })
	}
}

func (e *Engine) report(checker, msg string, rec trace.Record) {
	if len(e.violations) >= maxViolations {
		e.dropped++
		return
	}
	e.violations = append(e.violations, Violation{
		Checker: checker,
		Msg:     msg,
		Rec:     rec,
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
