package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Balancer routes domain traffic across front-end backends using only
// what the notification pipe has told it. It is the paper's "view
// subscriber": GulfStream Central is the authority on component status
// (§2.2), and the balancer's routing table is that authority as seen
// through a (possibly delayed) notification channel — stale exactly when
// the channel is.
type Balancer struct {
	clock  transport.Clock
	dir    Directory
	reg    *metrics.Registry
	tracer *trace.Recorder

	quarantine bool
	domains    []string
	tables     map[string]*domainTable
	// nodeDomain is the balancer's believed domain per tracked backend;
	// only nodes present here are ever touched by events (switch names
	// riding in Event.Node fall through harmlessly).
	nodeDomain map[string]string
	// down holds the out-of-rotation backends with the reason each was
	// pulled; absence means in rotation.
	down map[string]string

	maxLag time.Duration
}

// domainTable is one domain's backend set, kept sorted for deterministic
// rotation.
type domainTable struct {
	backends []string
	rr       int
}

// Share is one backend's slice of a routed request batch.
type Share struct {
	Node     string
	Requests int64
}

// NewBalancer seeds the routing table from the directory: every
// front-end of every domain starts in rotation. reg and tracer may be
// nil.
func NewBalancer(cfg Config, clock transport.Clock, dir Directory,
	reg *metrics.Registry, tracer *trace.Recorder) *Balancer {
	cfg = cfg.withDefaults()
	b := &Balancer{
		clock:      clock,
		dir:        dir,
		reg:        reg,
		tracer:     tracer,
		quarantine: cfg.QuarantineOnMismatch,
		tables:     make(map[string]*domainTable),
		nodeDomain: make(map[string]string),
		down:       make(map[string]string),
	}
	b.domains = append(b.domains, dir.Domains()...)
	for _, dom := range b.domains {
		t := &domainTable{backends: append([]string(nil), dir.FrontEnds(dom)...)}
		sort.Strings(t.backends)
		b.tables[dom] = t
		for _, n := range t.backends {
			b.nodeDomain[n] = dom
		}
	}
	b.updateGauges()
	return b
}

// Apply consumes one notification. It is the pipe's delivery target; the
// simulator never calls it concurrently.
func (b *Balancer) Apply(e event.Event) {
	if lag := b.clock.Now() - e.Time; lag >= 0 {
		if lag > b.maxLag {
			b.maxLag = lag
		}
		if b.reg != nil {
			b.reg.ObserveDuration("serve_notify_lag", lag)
		}
	}
	switch e.Kind {
	case event.AdapterFailed, event.NodeFailed:
		// Suppressed failures are Central-expected (a planned move);
		// MoveStarted already drained the node.
		if e.Suppressed {
			return
		}
		b.setDown(e.Node, "failure reported", e.Incident)
	case event.MoveStarted:
		b.setDown(e.Node, "draining for planned move", e.Incident)
	case event.NodeMoved, event.AdapterRecovered, event.NodeRecovered, event.AdapterJoined:
		// The node is alive (again) — re-resolve its domain, then put it
		// back in rotation. Re-resolving on recovery too, not just on
		// NodeMoved, heals the table when a move completed while the
		// node was down and the join was reported as a plain recovery.
		b.restore(e.Node, e.Incident)
	case event.VerifyMismatch:
		if b.quarantine && e.Node != "" {
			b.setDown(e.Node, "verification mismatch", e.Incident)
		}
	}
}

// setDown pulls a tracked backend out of rotation. incident is the
// triggering notification's correlator, stamped onto the trace record so
// the span stitcher can tie the reroute to the incident it reacted to.
func (b *Balancer) setDown(node, reason string, incident uint64) {
	if _, tracked := b.nodeDomain[node]; !tracked {
		return
	}
	if _, already := b.down[node]; already {
		return
	}
	b.down[node] = reason
	b.trace(trace.KServeBackendDown, node, incident, b.nodeDomain[node]+" "+reason)
	b.updateGauges()
}

// restore re-resolves the node's domain against the directory and
// returns it to rotation.
func (b *Balancer) restore(node string, incident uint64) {
	believed, tracked := b.nodeDomain[node]
	if !tracked {
		return
	}
	if dom, ok := b.dir.DomainOf(node); ok && dom != believed {
		b.removeBackend(believed, node)
		b.addBackend(dom, node)
		b.nodeDomain[node] = dom
	}
	if _, wasDown := b.down[node]; wasDown {
		delete(b.down, node)
		b.trace(trace.KServeBackendUp, node, incident, b.nodeDomain[node])
	}
	b.updateGauges()
}

func (b *Balancer) removeBackend(dom, node string) {
	t := b.tables[dom]
	if t == nil {
		return
	}
	for i, n := range t.backends {
		if n == node {
			t.backends = append(t.backends[:i], t.backends[i+1:]...)
			return
		}
	}
}

func (b *Balancer) addBackend(dom, node string) {
	t := b.tables[dom]
	if t == nil {
		// A move into a domain the directory never listed; track it so
		// the node is not lost.
		t = &domainTable{}
		b.tables[dom] = t
		b.domains = append(b.domains, dom)
	}
	i := sort.SearchStrings(t.backends, node)
	if i < len(t.backends) && t.backends[i] == node {
		return
	}
	t.backends = append(t.backends, "")
	copy(t.backends[i+1:], t.backends[i:])
	t.backends[i] = node
}

// healthy appends the domain's in-rotation backends to dst.
func (b *Balancer) healthy(dom string, dst []string) []string {
	t := b.tables[dom]
	if t == nil {
		return dst
	}
	for _, n := range t.backends {
		if _, isDown := b.down[n]; !isDown {
			dst = append(dst, n)
		}
	}
	return dst
}

// Assign splits a batch of n requests across the domain's healthy
// backends — the counted-cohort fast path: one Share per backend instead
// of one routing decision per request. The split is even with the
// remainder rotated round-robin, so repeated batches of one request each
// rotate across the healthy backends. A nil result means no backend is in
// rotation.
func (b *Balancer) Assign(domain string, n int64) []Share {
	if n <= 0 {
		return nil
	}
	t := b.tables[domain]
	if t == nil {
		return nil
	}
	up := b.healthy(domain, make([]string, 0, len(t.backends)))
	h := int64(len(up))
	if h == 0 {
		return nil
	}
	base, rem := n/h, n%h
	shares := make([]Share, 0, h)
	for i, node := range up {
		r := base
		// The remainder goes to the rr-rotated prefix so consecutive
		// small batches don't always favor the same backends.
		if int64((i+len(up)-t.rr%len(up))%len(up)) < rem {
			r++
		}
		if r > 0 {
			shares = append(shares, Share{Node: node, Requests: r})
		}
	}
	t.rr = (t.rr + int(rem)) % len(up)
	return shares
}

// Audit verifies the routing table against ground truth: every backend
// in rotation must actually serve the domain the balancer routes it
// for. One finding per stale entry; empty means the notification path
// delivered everything the fabric did.
func (b *Balancer) Audit(oracle Oracle) []string {
	var out []string
	for _, dom := range b.domains {
		for _, node := range b.healthy(dom, nil) {
			if !oracle.Serves(node, dom) {
				out = append(out, fmt.Sprintf(
					"serve: balancer routes %s traffic to %s, which cannot serve it", dom, node))
			}
		}
	}
	return out
}

// Healthy returns the domain's in-rotation backends (sorted).
func (b *Balancer) Healthy(domain string) []string { return b.healthy(domain, nil) }

// MaxLag is the largest publication-to-delivery lag observed.
func (b *Balancer) MaxLag() time.Duration { return b.maxLag }

// trace records one routing-table transition; detail's first
// space-separated field is the domain, and token is the incident id of
// the notification that caused it (0 when untriggered or uncorrelated).
func (b *Balancer) trace(kind trace.Kind, node string, token uint64, detail string) {
	if b.tracer == nil {
		return
	}
	b.tracer.Record(trace.Record{
		T: b.clock.Now(), Kind: kind, Node: node, Token: token, Detail: detail,
	})
}

func (b *Balancer) updateGauges() {
	if b.reg == nil {
		return
	}
	for _, dom := range b.domains {
		b.reg.Set("serve_backends_up_"+dom, float64(len(b.healthy(dom, nil))))
	}
}
