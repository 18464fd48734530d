// HTTP debug endpoint: Prometheus-text metrics, flight-recorder dumps,
// a liveness/health snapshot, expvar, and pprof, served off the protocol
// event loop so handlers never touch daemon state directly.
package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/transport"
)

// adapterHealth is one adapter's row in the /healthz document.
type adapterHealth struct {
	Adapter string `json:"adapter"`
	Role    string `json:"role"` // "leader", "member", or "discovering"
	Leader  string `json:"leader,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Members int    `json:"members,omitempty"`
}

// healthSnapshot is the /healthz document. It is assembled on the
// protocol event loop and published through an atomic pointer, so the
// HTTP handler serves a consistent (if up to ~2s stale) view without
// racing the single-threaded daemon.
type healthSnapshot struct {
	Node           string          `json:"node"`
	UptimeSec      float64         `json:"uptime_sec"`
	Adapters       []adapterHealth `json:"adapters"`
	HostingCentral bool            `json:"hosting_central"`
	CentralGroups  int             `json:"central_groups,omitempty"`
	CentralStable  bool            `json:"central_stable,omitempty"`
	TraceTotal     uint64          `json:"trace_total"`
	TraceDropped   uint64          `json:"trace_dropped"`
	// DeadSockets counts adapter sockets whose read loop died while still
	// bound; such an adapter fails its loopback self-test.
	DeadSockets uint64 `json:"dead_sockets"`
}

// healthRefreshEvery is how often the event loop republishes /healthz.
const healthRefreshEvery = 2 * time.Second

// startDebug wires the debug HTTP server and schedules the health
// snapshot refresher on the runtime event loop. It returns the actually
// bound address (useful with ":0") after the listener goroutine is
// launched, or "" if the listen failed. A non-nil fc additionally mounts
// the /fabricctl handlers the conformance harness drives faults through.
// udp are the UDP endpoints under eps, whose socket counters /metrics
// and /healthz export.
func startDebug(addr, node string, rt *transport.Runtime, eps []transport.Endpoint,
	udp []*transport.UDPEndpoint, d *core.Daemon, ctr *central.Central, rec *trace.Recorder, reg *metrics.Registry,
	fc *fabricControl) string {

	var cur atomic.Pointer[healthSnapshot]

	collect := func() *healthSnapshot {
		s := &healthSnapshot{
			Node:         node,
			UptimeSec:    rt.Now().Seconds(),
			TraceTotal:   rec.Total(),
			TraceDropped: rec.Dropped(),
		}
		for _, ep := range eps {
			row := adapterHealth{Adapter: ep.LocalIP().String(), Role: "discovering"}
			if v, ok := d.View(ep.LocalIP()); ok {
				row.Role = "member"
				if v.Leader() == ep.LocalIP() {
					row.Role = "leader"
				}
				row.Leader = v.Leader().String()
				row.Version = v.Version
				row.Members = v.Size()
			}
			s.Adapters = append(s.Adapters, row)
		}
		sort.Slice(s.Adapters, func(i, j int) bool { return s.Adapters[i].Adapter < s.Adapters[j].Adapter })
		for _, ep := range udp {
			s.DeadSockets += ep.Counters.DeadSockets.Load()
		}
		if s.HostingCentral = d.HostingCentral(); s.HostingCentral {
			s.CentralGroups = ctr.GroupCount()
			s.CentralStable = ctr.Stable()
		}
		return s
	}
	var refresh func()
	refresh = func() {
		cur.Store(collect())
		rt.AfterFunc(healthRefreshEvery, refresh)
	}
	rt.AfterFunc(0, refresh)

	expvar.Publish("gulfstream", expvar.Func(func() any {
		return map[string]any{
			"node":          node,
			"trace_total":   rec.Total(),
			"trace_dropped": rec.Dropped(),
			"trace_enabled": rec.Enabled(),
		}
	}))

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
		writeUDPProm(w, rt, udp)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		serveTrace(w, r, rec)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		serveSpans(w, r, node, eps, rec)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s := cur.Load()
		if s == nil {
			http.Error(w, `{"status":"starting"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s)
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		serveTopology(w, r, node, rt, d, ctr)
	})
	if fc != nil {
		fc.mount(mux, rt, ctr)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("gsd: debug endpoint: %v", err)
		return ""
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("gsd: debug endpoint: %v", err)
		}
	}()
	bound := ln.Addr().String()
	log.Printf("gsd: debug endpoint on http://%s (/metrics /trace /spans /healthz /topology /debug/vars /debug/pprof)", bound)
	return bound
}

// writeUDPProm renders the real-socket counters of every adapter and the
// event-queue depth in Prometheus text.
func writeUDPProm(w io.Writer, rt *transport.Runtime, udp []*transport.UDPEndpoint) {
	counters := []struct {
		name, label string
		get         func(*transport.UDPCounters) uint64
	}{
		{"udp_rx_packets_total", "", func(c *transport.UDPCounters) uint64 { return c.RxPackets.Load() }},
		{"udp_rx_bytes_total", "", func(c *transport.UDPCounters) uint64 { return c.RxBytes.Load() }},
		{"udp_rx_dropped_total", `,reason="unbound"`, func(c *transport.UDPCounters) uint64 { return c.DropUnbound.Load() }},
		{"udp_rx_dropped_total", `,reason="closed"`, func(c *transport.UDPCounters) uint64 { return c.DropClosed.Load() }},
		{"udp_read_errors_total", "", func(c *transport.UDPCounters) uint64 { return c.ReadErrors.Load() }},
		{"udp_tx_errors_total", "", func(c *transport.UDPCounters) uint64 { return c.TxErrors.Load() }},
	}
	for i, c := range counters {
		if i == 0 || c.name != counters[i-1].name {
			fmt.Fprintf(w, "# TYPE gulfstream_%s counter\n", c.name)
		}
		for _, ep := range udp {
			fmt.Fprintf(w, "gulfstream_%s{adapter=%q%s} %d\n", c.name, ep.LocalIP().String(), c.label, c.get(&ep.Counters))
		}
	}
	fmt.Fprintf(w, "# TYPE gulfstream_runtime_queue_depth gauge\ngulfstream_runtime_queue_depth %d\n", rt.QueueDepth())
}

// serveTopology snapshots Central's discovered topology. The collection
// runs as one event-loop turn so the document is internally consistent;
// ?verify=1 adds the configdb mismatch verdicts.
func serveTopology(w http.ResponseWriter, r *http.Request, node string,
	rt *transport.Runtime, d *core.Daemon, ctr *central.Central) {

	verify := r.URL.Query().Get("verify") != ""
	done := make(chan *central.Topology, 1)
	rt.Post(func() { done <- ctr.Topology(node, d.HostingCentral(), verify) })
	select {
	case doc := <-done:
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(doc)
	case <-time.After(5 * time.Second):
		http.Error(w, `{"error":"event loop unresponsive"}`, http.StatusServiceUnavailable)
	}
}

// fabricControl exposes the loopback fabric's runtime knobs over HTTP:
// rescoping an adapter to another emulated segment (the SNMP port-VLAN
// rewrite equivalent), injecting socket-level faults, and asking a hosted
// Central for a planned node move. Only mounted with -fabric-ctl.
type fabricControl struct {
	scoped map[transport.IP]*transport.ScopedEndpoint
}

func (fc *fabricControl) endpoint(w http.ResponseWriter, r *http.Request) (*transport.ScopedEndpoint, bool) {
	ip, ok := transport.ParseIP(r.URL.Query().Get("adapter"))
	if !ok {
		http.Error(w, `{"error":"bad adapter"}`, http.StatusBadRequest)
		return nil, false
	}
	sc, ok := fc.scoped[ip]
	if !ok {
		http.Error(w, `{"error":"adapter not scoped"}`, http.StatusNotFound)
		return nil, false
	}
	return sc, true
}

func (fc *fabricControl) mount(mux *http.ServeMux, rt *transport.Runtime, ctr *central.Central) {
	ok := func(w http.ResponseWriter) { fmt.Fprintln(w, `{"ok":true}`) }

	mux.HandleFunc("/fabricctl/rescope", func(w http.ResponseWriter, r *http.Request) {
		sc, found := fc.endpoint(w, r)
		if !found {
			return
		}
		group, okIP := transport.ParseIP(r.URL.Query().Get("group"))
		if !okIP || !group.IsMulticast() {
			http.Error(w, `{"error":"bad group"}`, http.StatusBadRequest)
			return
		}
		sc.Rescope(group)
		ok(w)
	})

	mux.HandleFunc("/fabricctl/fault", func(w http.ResponseWriter, r *http.Request) {
		sc, found := fc.endpoint(w, r)
		if !found {
			return
		}
		q := r.URL.Query()
		parseLoss := func(key string) (float64, bool) {
			s := q.Get(key)
			if s == "" {
				return 0, true
			}
			v, err := strconv.ParseFloat(s, 64)
			return v, err == nil
		}
		lossIn, okIn := parseLoss("loss_in")
		lossOut, okOut := parseLoss("loss_out")
		if !okIn || !okOut {
			http.Error(w, `{"error":"bad loss rate"}`, http.StatusBadRequest)
			return
		}
		if err := sc.SetFault(q.Get("mode"), lossIn, lossOut); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusBadRequest)
			return
		}
		ok(w)
	})

	mux.HandleFunc("/fabricctl/segments", func(w http.ResponseWriter, r *http.Request) {
		// map=ip:scope,ip:scope — the fabric's full segment table. The
		// same (immutable) table is installed on every scoped adapter so
		// cross-segment unicast dies here the way it would at a bridge.
		table := map[transport.IP]transport.IP{}
		for _, pair := range strings.Split(r.URL.Query().Get("map"), ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			ipStr, scopeStr, found := strings.Cut(pair, ":")
			ip, okIP := transport.ParseIP(ipStr)
			scope, okScope := transport.ParseIP(scopeStr)
			if !found || !okIP || !okScope || !scope.IsMulticast() {
				http.Error(w, fmt.Sprintf(`{"error":"bad segment pair %q"}`, pair), http.StatusBadRequest)
				return
			}
			table[ip] = scope
		}
		for _, sc := range fc.scoped { // order-free: every endpoint gets the same table
			sc.SetSegments(table)
		}
		ok(w)
	})

	mux.HandleFunc("/fabricctl/move", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		node := q.Get("node")
		vlanByIndex := map[int]int{}
		for _, pair := range strings.Split(q.Get("set"), ",") {
			idxStr, vlanStr, found := strings.Cut(strings.TrimSpace(pair), ":")
			if !found {
				continue
			}
			idx, err1 := strconv.Atoi(idxStr)
			vlan, err2 := strconv.Atoi(vlanStr)
			if err1 != nil || err2 != nil {
				http.Error(w, `{"error":"bad set pair"}`, http.StatusBadRequest)
				return
			}
			vlanByIndex[idx] = vlan
		}
		if node == "" || len(vlanByIndex) == 0 {
			http.Error(w, `{"error":"need node and set=idx:vlan"}`, http.StatusBadRequest)
			return
		}
		done := make(chan error, 1)
		rt.Post(func() {
			ctr.MoveNode(node, vlanByIndex, func(err error) { done <- err })
		})
		select {
		case err := <-done:
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusConflict)
				return
			}
			ok(w)
		case <-time.After(30 * time.Second):
			http.Error(w, `{"error":"move timed out"}`, http.StatusGatewayTimeout)
		}
	})
}

// localTopo resolves the one node a standalone gsd can see: its own.
// Spans stitched from a single daemon's recorder cover the stages this
// node participated in or was notified about; farm-wide stitching wants
// a Collector over every node's recorder (gsctl timeline, gsbench lag).
type localTopo struct {
	node string
	ips  []transport.IP
}

func (t localTopo) AdaptersOf(node string) []transport.IP {
	if node == t.node {
		return t.ips
	}
	return nil
}

// serveSpans stitches the retained trace window into end-to-end
// incident spans and dumps them as JSON. ?incident=<id> keeps one
// Central incident, ?kind=<kind> one span kind (failure, planned-move,
// unexpected-move, switch-failure, leader-change), ?open=1 only spans
// whose incident has not closed yet.
func serveSpans(w http.ResponseWriter, r *http.Request, node string,
	eps []transport.Endpoint, rec *trace.Recorder) {

	topo := localTopo{node: node}
	for _, ep := range eps {
		topo.ips = append(topo.ips, ep.LocalIP())
	}
	q := r.URL.Query()
	var incident uint64
	if s := q.Get("incident"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"bad incident %q"}`, s), http.StatusBadRequest)
			return
		}
		incident = v
	}
	kind, openOnly := q.Get("kind"), q.Get("open") != ""
	spans := span.Stitch(rec.Snapshot(), topo)
	out := make([]*span.Span, 0, len(spans))
	for _, sp := range spans {
		if incident != 0 && sp.Incident != incident {
			continue
		}
		if kind != "" && sp.Kind != kind {
			continue
		}
		if openOnly && sp.Closed {
			continue
		}
		out = append(out, sp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(out)
}

// serveTrace dumps the flight recorder. With no query parameters the
// whole retained window is returned in the standard dump envelope;
// ?kind=<substring> filters by record kind, ?node=<substring> by node
// name, ?n=<count> keeps only the most recent matches, and ?txns=1
// groups 2PC records by transaction instead.
func serveTrace(w http.ResponseWriter, r *http.Request, rec *trace.Recorder) {
	q := r.URL.Query()
	kind, node := q.Get("kind"), q.Get("node")
	n := 0
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf(`{"error":"bad n %q"}`, s), http.StatusBadRequest)
			return
		}
		n = v
	}
	records := rec.Filter(func(rc trace.Record) bool {
		if kind != "" && !strings.Contains(rc.Kind.String(), kind) {
			return false
		}
		if node != "" && !strings.Contains(rc.Node, node) {
			return false
		}
		return true
	})
	if n > 0 && len(records) > n {
		records = records[len(records)-n:]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if q.Get("txns") != "" {
		type txnJSON struct {
			ID      string         `json:"id"`
			Records []trace.Record `json:"records"`
		}
		out := []txnJSON{}
		for _, t := range trace.Txns(records) {
			out = append(out, txnJSON{ID: t.ID(), Records: t.Records})
		}
		enc.Encode(out)
		return
	}
	if kind == "" && node == "" && n == 0 {
		rec.WriteJSON(w)
		return
	}
	if records == nil {
		records = []trace.Record{}
	}
	enc.Encode(struct {
		Total   uint64         `json:"total"`
		Dropped uint64         `json:"dropped"`
		Records []trace.Record `json:"records"`
	}{rec.Total(), rec.Dropped(), records})
}
