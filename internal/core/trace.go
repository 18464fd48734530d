package core

import (
	"errors"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// SetTracer installs the protocol flight recorder. Must be called before
// Start. A nil (or absent) recorder, or one switched off, makes every
// instrumentation point a no-op, so the protocol code records
// unconditionally.
func (d *Daemon) SetTracer(r *trace.Recorder) { d.tracer = r }

// trace stamps a record with this daemon's clock and node name and
// captures it. It takes a pointer so the Record literal at each call
// site stays on the caller's stack and hot paths don't pay a struct
// copy per instrumentation point when no recorder is listening.
func (d *Daemon) trace(rec *trace.Record) {
	if !d.tracer.Enabled() {
		return
	}
	rec.T = d.clock.Now()
	rec.Node = d.node
	d.tracer.Record(*rec)
}

// trace captures a record on behalf of one adapter.
func (p *adapterProto) trace(rec *trace.Record) {
	if !p.d.tracer.Enabled() {
		return
	}
	rec.Self = p.self
	p.d.trace(rec)
}

// rxDropped records a packet that arrived for the adapter self on the
// named protocol plane and failed to decode — the one way a packet leaves
// a receive path without the protocol having looked at it.
func (d *Daemon) rxDropped(self transport.IP, plane string, err error) {
	if !d.tracer.Enabled() {
		return
	}
	reason := "bad-type"
	switch {
	case errors.Is(err, wire.ErrShort):
		reason = "short"
	case errors.Is(err, wire.ErrTrailing):
		reason = "trailing"
	case errors.Is(err, wire.ErrBadVersion):
		reason = "bad-version"
	}
	d.trace(&trace.Record{Kind: trace.KRxDropped, Self: self, Detail: plane + " " + reason})
}
