package central

import (
	"repro/internal/event"
	"repro/internal/trace"
)

// Incident correlation: Central assigns one id per ongoing disturbance,
// keyed by the subject node (or switch), and stamps it onto every
// notification about that subject until the disturbance resolves. The id
// is the correlator the span stitcher uses to tie a failure's detection,
// 2PC, report, notification, and serving-plane reaction into one
// end-to-end timeline — which is why every stamped publish also leaves a
// KNotifySent flight-recorder record, and every resolution a
// KIncidentClosed one.
//
// Lifecycle:
//
//   - open on the first failure-class or move-class event about a
//     subject (AdapterFailed, NodeFailed, SwitchFailed, MoveStarted,
//     NodeMoved);
//   - join (stamp without opening) recoveries and verification findings
//     about a subject with an open incident;
//   - close on the resolving event: NodeRecovered, SwitchRecovered,
//     AdapterRecovered when the node is not (or no longer) dead, and
//     NodeMoved once no further planned move is pending for the node;
//   - close explicitly when Central abandons a pending move without
//     correlating it (closeIncidentIfMoveDone), since no resolving
//     event will ever arrive on that path.
//
// Ids are per-Central-instance; the (hosting node, id) pair is unique
// farm-wide, which is how the stitcher disambiguates ids issued by
// partition-local Centrals.

// stampIncident correlates one outbound event, mutating e in place.
// Called from publish, so every bus subscriber sees the stamped id.
func (c *Central) stampIncident(e *event.Event) {
	subject := e.Node
	if subject == "" {
		return
	}
	switch e.Kind {
	case event.AdapterFailed, event.NodeFailed, event.SwitchFailed,
		event.MoveStarted, event.NodeMoved:
		id, open := c.incidents[subject]
		if !open {
			c.incidentSeq++
			id = c.incidentSeq
			c.incidents[subject] = id
		}
		e.Incident = id
		c.traceNotify(*e, subject)
		if e.Kind == event.NodeMoved && !c.nodeHasPendingMove(subject) {
			c.closeIncident(subject, id)
		}
	case event.AdapterRecovered, event.NodeRecovered, event.SwitchRecovered,
		event.VerifyMismatch:
		id, open := c.incidents[subject]
		if !open {
			return
		}
		e.Incident = id
		c.traceNotify(*e, subject)
		switch e.Kind {
		case event.NodeRecovered, event.SwitchRecovered:
			c.closeIncident(subject, id)
		case event.AdapterRecovered:
			// A recovered adapter resolves the incident only once the node
			// itself is no longer correlated dead (for a single-adapter
			// failure that is immediately; for a node death the
			// NodeRecovered that follows does the closing).
			if !c.nodeDead[subject] {
				c.closeIncident(subject, id)
			}
		}
	}
}

// nodeHasPendingMove reports whether any adapter Central is still
// expecting to move belongs to the node — a multi-adapter move closes on
// the last adapter's NodeMoved, not the first.
func (c *Central) nodeHasPendingMove(node string) bool {
	for ip := range c.expectedMoves {
		if a, ok := c.adapters[ip]; ok && a.member.Node == node {
			return true
		}
		if c.db != nil {
			if spec, ok := c.db.Adapter(ip); ok && spec.Node == node {
				return true
			}
		}
	}
	return false
}

// closeIncidentIfMoveDone closes the node's open incident when Central
// holds no further expectation about it. Called on the paths that
// abandon a pending move without correlating it (expectation sweep,
// SNMP rewrite failure): no NodeMoved will ever arrive there, so the
// closure has to be explicit. A dead node keeps its incident open — the
// eventual NodeRecovered closes it.
func (c *Central) closeIncidentIfMoveDone(node string) {
	if node == "" {
		return
	}
	if id, open := c.incidents[node]; open && !c.nodeDead[node] && !c.nodeHasPendingMove(node) {
		c.closeIncident(node, id)
	}
}

func (c *Central) closeIncident(subject string, id uint64) {
	delete(c.incidents, subject)
	c.trace(trace.Record{Kind: trace.KIncidentClosed, Token: id, Detail: subject})
}

// traceNotify records the stamped publication in the flight recorder:
// Token carries the incident id, Detail the event kind and subject.
func (c *Central) traceNotify(e event.Event, subject string) {
	c.trace(trace.Record{Kind: trace.KNotifySent, Peer: e.Adapter,
		Group: e.Group, Token: e.Incident, Detail: e.Kind.String() + " " + subject})
}

// Incidents snapshots the open incidents (subject -> id), for debug
// surfaces and tests.
func (c *Central) Incidents() map[string]uint64 {
	out := make(map[string]uint64, len(c.incidents))
	for n, id := range c.incidents {
		out[n] = id
	}
	return out
}
