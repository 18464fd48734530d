// Command gsd is the GulfStream daemon for real networks: the same
// protocol engine the simulator runs, driven by UDP multicast/unicast
// sockets and wall-clock time. Start one per node, listing the node's
// adapter addresses (the first is the administrative adapter); the
// daemons discover each other by beaconing on 224.0.0.71:7400, form
// Adapter Membership Groups per segment, and report to whichever node's
// administrative adapter wins the admin-AMG leadership (that node
// activates GulfStream Central and prints farm-level events).
//
// Usage:
//
//	gsd -node web-01 -adapters 10.1.0.5,10.4.0.5,10.5.0.5 [flags]
//
// With -journal-dir, a hosted Central keeps an append-only journal of its
// committed state there and streams it to the next-in-line administrative
// adapter, so a successor (or a restarted gsd) rebuilds its view from the
// journal instead of a multicast resync pull.
//
// Network segments can be emulated two ways on one machine: with network
// namespaces (see README.md), or — for unprivileged conformance runs —
// with scoped adapters: `-adapters 127.1.0.11@239.71.0.1` wraps the
// adapter so its multicast lives on the given per-segment group instead
// of the well-known one, which is how cmd/gshive's loopback fabric plugs
// daemons into virtual VLANs. `-fabric-ctl` additionally exposes
// /fabricctl handlers on the debug server so the harness can rewire and
// fault those adapters at runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/central"
	"repro/internal/configdb"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// readyInfo is the machine-readable readiness line written to -ready-fd
// once the daemon has started: the orchestrator's signal that sockets are
// bound and the protocol clock is running. StartUnixNS is the wall-clock
// epoch of the daemon's trace timestamps, letting an external merger
// align flight-recorder streams from many processes.
type readyInfo struct {
	Node        string   `json:"node"`
	PID         int      `json:"pid"`
	StartUnixNS int64    `json:"start_unix_ns"`
	Adapters    []string `json:"adapters"`
	DebugAddr   string   `json:"debug_addr,omitempty"`
}

// fastProfile compresses every protocol timer for single-host conformance
// farms — the same values the in-repo UDP end-to-end test converges with.
func fastProfile(cfg *core.Config) {
	cfg.BeaconPhase = 2 * time.Second
	cfg.BeaconInterval = 300 * time.Millisecond
	cfg.LeaderBeaconInterval = 500 * time.Millisecond
	cfg.StableWait = 500 * time.Millisecond
	cfg.DeferTimeout = 3 * time.Second
	cfg.DetectorParams.Interval = 300 * time.Millisecond
	cfg.OrphanTimeout = 5 * time.Second
	cfg.ConsensusWindow = 600 * time.Millisecond
}

// parseAdapters parses the -adapters list. Each element is `ip` or
// `ip@scopegroup`; any scoped element wraps its endpoint in a
// transport.ScopedEndpoint pinned to that multicast group.
func parseAdapters(rt *transport.Runtime, spec string) (eps []transport.Endpoint, scoped map[transport.IP]*transport.ScopedEndpoint, close func(), err error) {
	scoped = make(map[transport.IP]*transport.ScopedEndpoint)
	var raw []*transport.UDPEndpoint
	close = func() {
		for _, ep := range raw {
			ep.Close()
		}
	}
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		addr, scope, hasScope := strings.Cut(s, "@")
		ip, ok := transport.ParseIP(addr)
		if !ok {
			return nil, nil, close, fmt.Errorf("bad adapter address %q", s)
		}
		ep, err := transport.NewUDPEndpoint(rt, ip)
		if err != nil {
			return nil, nil, close, fmt.Errorf("adapter %v: %v", ip, err)
		}
		raw = append(raw, ep)
		if !hasScope {
			eps = append(eps, ep)
			continue
		}
		group, ok := transport.ParseIP(scope)
		if !ok || !group.IsMulticast() {
			return nil, nil, close, fmt.Errorf("bad scope group %q for adapter %v", scope, ip)
		}
		sc := transport.NewScopedEndpoint(ep, group)
		scoped[ip] = sc
		eps = append(eps, sc)
	}
	return eps, scoped, close, nil
}

// parseSwitches parses -switches: `name=ip:port` elements naming the SNMP
// agents of the farm's switches, registered with a hosted Central so it
// can execute (and verify) VLAN rewrites.
func parseSwitches(spec string) (map[string]transport.Addr, error) {
	out := make(map[string]transport.Addr)
	if spec == "" {
		return out, nil
	}
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		name, addr, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("bad switch spec %q (want name=ip:port)", s)
		}
		host, portStr, ok := strings.Cut(addr, ":")
		port := int(transport.PortSNMP)
		if ok {
			p, err := strconv.Atoi(portStr)
			if err != nil || p <= 0 || p > 65535 {
				return nil, fmt.Errorf("bad switch port in %q", s)
			}
			port = p
		}
		ip, okIP := transport.ParseIP(host)
		if !okIP {
			return nil, fmt.Errorf("bad switch address in %q", s)
		}
		out[name] = transport.Addr{IP: ip, Port: uint16(port)}
	}
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		node       = flag.String("node", "", "node name (required)")
		adapters   = flag.String("adapters", "", "comma-separated adapter IPv4 addresses, each `ip` or `ip@scopegroup`; first is administrative (required)")
		fast       = flag.Bool("fast", false, "compressed protocol timers for single-host conformance farms")
		tb         = flag.Duration("tb", 5*time.Second, "beacon phase Tb")
		ts         = flag.Duration("ts", 5*time.Second, "leader quiet wait Ts")
		tgsc       = flag.Duration("tgsc", 15*time.Second, "Central stabilization wait Tgsc")
		th         = flag.Duration("th", time.Second, "heartbeat interval Th")
		miss       = flag.Int("miss", 3, "missed-heartbeat sensitivity k")
		detName    = flag.String("detector", "biring", "failure detector: ring|biring|all-to-all|randping|subgroup")
		dbPath     = flag.String("configdb", "", "expected-topology JSON for Central verification (optional)")
		community  = flag.String("community", "farm-admin", "SNMP community for switch management")
		switches   = flag.String("switches", "", "comma-separated switch SNMP agents (name=ip:port) registered with a hosted Central")
		journalDir = flag.String("journal-dir", "", "directory for Central's durable state journal (empty = journal off)")
		seed       = flag.Int64("seed", 0, "randomness seed (0 = time-based)")
		debugAddr  = flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /trace, /healthz, /debug/vars, /debug/pprof (empty = off)")
		fabricCtl  = flag.Bool("fabric-ctl", false, "expose /fabricctl rescope/fault/move handlers on the debug server (conformance harness only)")
		readyFD    = flag.Int("ready-fd", 0, "file descriptor to write a one-line JSON readiness message to once started (0 = off)")
		traceOn    = flag.Bool("trace", true, "capture protocol flight-recorder records")
		traceCap   = flag.Int("trace-cap", 0, "flight recorder capacity in records (0 = default)")
	)
	flag.Parse()
	if *node == "" || *adapters == "" {
		flag.Usage()
		return 2
	}
	kind, err := detect.ParseKind(*detName)
	if err != nil {
		log.Print(err)
		return 1
	}

	cfg := core.DefaultConfig()
	// Reports are deduped by Central per reporter via sequence numbers; a
	// restarted process must not reuse its previous life's numbering or
	// its first reports are swallowed as duplicates. Boot time makes the
	// sequence space monotonic across restarts.
	cfg.ReportEpoch = uint64(time.Now().UnixNano())
	if *fast {
		fastProfile(&cfg)
		// Explicit timer flags still win over the profile.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tb":
				cfg.BeaconPhase = *tb
			case "ts":
				cfg.StableWait = *ts
			case "th":
				cfg.DetectorParams.Interval = *th
			}
		})
	} else {
		cfg.BeaconPhase = *tb
		cfg.StableWait = *ts
		cfg.DetectorParams.Interval = *th
	}
	cfg.Detector = kind
	cfg.Consensus = kind == detect.BiRing
	cfg.DetectorParams.MissThreshold = *miss

	rt := transport.NewRuntime()
	eps, scopedEPs, closeEPs, err := parseAdapters(rt, *adapters)
	defer closeEPs()
	if err != nil {
		log.Printf("gsd: %v", err)
		return 1
	}

	var db *configdb.DB
	if *dbPath != "" {
		db, err = configdb.Load(*dbPath)
		if err != nil {
			log.Printf("gsd: configdb: %v", err)
			return 1
		}
	}
	bus := event.NewBus(false)
	bus.Subscribe(func(e event.Event) {
		fmt.Printf("%s %v\n", time.Now().Format(time.RFC3339), e)
	})
	cc := central.DefaultConfig()
	cc.StabilizeWait = *tgsc
	cc.Community = *community
	ctr := central.New(cc, rt, bus, db)
	agents, err := parseSwitches(*switches)
	if err != nil {
		log.Printf("gsd: %v", err)
		return 1
	}
	for name, addr := range agents {
		ctr.RegisterSwitchAgent(name, addr)
	}
	if *journalDir != "" {
		store, err := journal.NewFileStore(*journalDir, journal.FileOptions{})
		if err != nil {
			log.Printf("gsd: journal: %v", err)
			return 1
		}
		j, err := journal.New(store, journal.Options{})
		if err != nil {
			log.Printf("gsd: journal: %v", err)
			return 1
		}
		defer j.Close()
		ctr.SetJournal(j)
		state := "empty"
		if j.Loaded() {
			state = fmt.Sprintf("replayed %d groups", len(j.State().Groups))
		}
		log.Printf("gsd: state journal at %s (%s, epoch %d, seq %d)",
			*journalDir, state, j.Epoch(), j.Seq())
	}

	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	d, err := core.NewDaemon(cfg, *node, rt, rand.New(rand.NewSource(s)), eps)
	if err != nil {
		log.Print(err)
		return 1
	}
	d.SetCentral(ctr)

	// Flight recorder + telemetry registry. The recorder is always
	// installed (a disabled recorder costs one atomic load per capture
	// site); the registry is fed from recorder records via the bridge.
	rec := trace.New(*traceCap)
	rec.Enable(*traceOn)
	reg := metrics.NewRegistry()
	rec.AddSink(metrics.ObserveTrace(reg))
	d.SetTracer(rec)
	ctr.SetTracer(rec, *node)
	boundDebug := ""
	if *debugAddr != "" {
		var fc *fabricControl
		if *fabricCtl {
			fc = &fabricControl{scoped: scopedEPs}
		}
		boundDebug = startDebug(*debugAddr, *node, rt, eps, d, ctr, rec, reg, fc)
	}

	// Start inside the event loop so all protocol work is serialized.
	rt.AfterFunc(0, func() {
		d.Start()
		log.Printf("gsd: node %s up with %d adapters (admin %v), detector %v",
			*node, len(eps), d.AdminIP(), kind)
		if *readyFD > 0 {
			writeReady(*readyFD, *node, rt, eps, boundDebug)
		}
	})

	// Periodic status line.
	var status func()
	status = func() {
		for _, ep := range eps {
			if v, ok := d.View(ep.LocalIP()); ok {
				role := "member"
				if v.Leader() == ep.LocalIP() {
					role = "LEADER"
				}
				log.Printf("gsd: adapter %v: %s of %v", ep.LocalIP(), role, v)
			} else {
				log.Printf("gsd: adapter %v: discovering", ep.LocalIP())
			}
		}
		if d.HostingCentral() {
			log.Printf("gsd: this node hosts GulfStream Central (%d groups)", ctr.GroupCount())
		}
		if j := ctr.Journal(); j != nil && (d.HostingCentral() || j.Loaded()) {
			log.Printf("gsd: journal epoch %d seq %d (%d groups)", j.Epoch(), j.Seq(), len(j.State().Groups))
		}
		rt.AfterFunc(30*time.Second, status)
	}
	rt.AfterFunc(30*time.Second, status)

	// Catch signals before the loop can announce readiness: whoever reads
	// the readiness line may send SIGTERM at once.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go rt.Run()
	got := <-sig
	log.Printf("gsd: %v, shutting down", got)
	// Close sockets first: the runtime's Close waits for every socket
	// read loop, and those only exit when their sockets close.
	closeEPs()
	rt.Close()
	return 0
}

// writeReady emits the one-line readiness JSON on the inherited fd and
// closes it, so an orchestrator blocked on the read unblocks exactly when
// the daemon is live.
func writeReady(fd int, node string, rt *transport.Runtime, eps []transport.Endpoint, debugAddr string) {
	f := os.NewFile(uintptr(fd), "ready")
	if f == nil {
		return
	}
	defer f.Close()
	info := readyInfo{
		Node:        node,
		PID:         os.Getpid(),
		StartUnixNS: rt.Start().UnixNano(),
		DebugAddr:   debugAddr,
	}
	for _, ep := range eps {
		info.Adapters = append(info.Adapters, ep.LocalIP().String())
	}
	b, err := json.Marshal(info)
	if err != nil {
		return
	}
	b = append(b, '\n')
	_, _ = f.Write(b)
}
