package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/amg"
	"repro/internal/check"
	"repro/internal/configdb"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/event"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// probeRun carries one traced run's captured inputs to the layer probes
// and collects what they measure. A probe drives a layer's exported
// functions standalone, at the workload's sizes, inside a bench span.
type probeRun struct {
	seed int64
	cap  *capture
	out  outcome // the last traced rep's outcome (counts)
	sl   *spanLog
	// repNs is the fastest untraced rep, the time the shares are taken of.
	repNs float64
	// unit holds unit costs and other probe-measured per-layer metrics.
	unit map[string]float64
	// layerNs accumulates count × unit cost per layer.
	layerNs map[string]float64
	// problems are probes that could not run; any makes the run incorrect,
	// because a metric nothing measured would print as 0.
	problems []string
}

// batch times n calls of fn inside one span and returns ns per call.
func (p *probeRun) batch(name string, n int, fn func()) float64 {
	id := p.sl.begin(name)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	ns := float64(time.Since(t0))
	p.sl.end(id, n)
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

// timed runs fn once inside a span and returns its wall time in ns.
func (p *probeRun) timed(name string, calls int, fn func()) float64 {
	id := p.sl.begin(name)
	t0 := time.Now()
	fn()
	ns := float64(time.Since(t0))
	p.sl.end(id, calls)
	return ns
}

func (p *probeRun) count(name string) float64 { return p.out.counts[name] }

// simClock adapts a scheduler to transport.Clock for standalone layers.
type simClock struct{ s *sim.Scheduler }

func (c simClock) Now() time.Duration { return c.s.Now() }
func (c simClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

// sinkEndpoint is a transport.Endpoint that keeps bound handlers and
// discards sends — the probe's stand-in for an adapter, so a layer's
// receive path can be called directly with captured bytes.
type sinkEndpoint struct {
	ip       transport.IP
	handlers map[uint16]transport.Handler
}

func newSinkEndpoint(ip transport.IP) *sinkEndpoint {
	return &sinkEndpoint{ip: ip, handlers: map[uint16]transport.Handler{}}
}

func (e *sinkEndpoint) LocalIP() transport.IP                          { return e.ip }
func (e *sinkEndpoint) Unicast(uint16, transport.Addr, []byte) error   { return nil }
func (e *sinkEndpoint) Multicast(uint16, transport.Addr, []byte) error { return nil }
func (e *sinkEndpoint) Bind(port uint16, h transport.Handler)          { e.handlers[port] = h }
func (e *sinkEndpoint) JoinGroup(transport.IP, uint16)                 {}
func (e *sinkEndpoint) Loopback() bool                                 { return true }

// decodeOne is the receive path's decode: hot fixed-size messages go
// through DecodeInto with a reused value, the rest through Decode.
func decodeOne(pkt []byte, b *wire.Beacon, hb *wire.Heartbeat) (wire.Message, error) {
	t, ok := wire.Peek(pkt)
	if !ok {
		return nil, fmt.Errorf("bench: undecodable captured packet")
	}
	switch t {
	case wire.TBeacon:
		return b, wire.DecodeInto(pkt, b)
	case wire.THeartbeat:
		return hb, wire.DecodeInto(pkt, hb)
	}
	return wire.Decode(pkt)
}

// probeWire measures decode and encode over the captured packets.
// Multicast and unicast samples are timed separately and weighted by the
// deliveries each class produced: a beacon is decoded once per receiver,
// a 500-member Prepare once.
func (p *probeRun) probeWire() (decMcastNs, decUcastNs float64) {
	var classes [2][][]byte // 0 = unicast, 1 = multicast
	for _, s := range p.cap.packets.kept {
		i := 0
		if s.multicast {
			i = 1
		}
		classes[i] = append(classes[i], s.payload)
	}
	var b wire.Beacon
	var hb wire.Heartbeat
	var dec, allocs [2]float64
	for i, pkts := range classes {
		if len(pkts) == 0 {
			continue
		}
		rounds := 1 + 100_000/len(pkts)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns := p.batch(fmt.Sprintf("wire.decode[%d pkts]", len(pkts)), rounds, func() {
			for _, pkt := range pkts {
				if _, err := decodeOne(pkt, &b, &hb); err != nil {
					panic(err)
				}
			}
		})
		runtime.ReadMemStats(&m1)
		dec[i] = ns / float64(len(pkts))
		allocs[i] = float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(pkts))
	}
	// Encode: every captured message re-encoded through the pooled path.
	var msgs []wire.Message
	for _, s := range p.cap.packets.kept {
		if m, err := wire.Decode(s.payload); err == nil {
			msgs = append(msgs, m)
		}
	}
	enc := 0.0
	if len(msgs) > 0 {
		rounds := 1 + 100_000/len(msgs)
		enc = p.batch("wire.encode", rounds, func() {
			for _, m := range msgs {
				wire.NewPacket(m).Free()
			}
		}) / float64(len(msgs))
	}
	md, ud := float64(p.cap.mcastDeliveries.Load()), float64(p.cap.ucastDels.Load())
	sent := float64(p.cap.mcastMsgs.Load() + p.cap.ucastMsgs.Load())
	if md+ud > 0 {
		p.unit["wire.decode_ns"] = (md*dec[1] + ud*dec[0]) / (md + ud)
		p.unit["wire.allocs_per_msg"] = (md*allocs[1] + ud*allocs[0]) / (md + ud)
	}
	p.unit["wire.encode_ns"] = enc
	if sent > 0 {
		p.unit["wire.bytes_per_msg"] = float64(p.cap.bytes.Load()) / sent
	}
	p.layerNs["wire"] += md*dec[1] + ud*dec[0] + sent*enc
	return dec[1], dec[0]
}

// firstPayload returns a captured packet sent to port ("" when none).
func (p *probeRun) firstPayload(port uint16, multicast bool) []byte {
	for _, s := range p.cap.packets.kept {
		if s.port == port && s.multicast == multicast {
			return s.payload
		}
	}
	return nil
}

// probeNetsim builds one standalone segment of n adapters and times
// multicast fan-out per delivery and unicast per message, kernel event
// included (a delivery is one scheduler event; share.sim counts only the
// events that are not deliveries).
func (p *probeRun) probeNetsim(n int) (mcastNs, ucastNs float64) {
	sched := sim.NewScheduler(p.seed)
	res := netsim.NewStaticResolver()
	net := netsim.New(sched, res)
	net.SetDefaultProfile(netsim.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
	nop := func(_, _ transport.Addr, _ []byte) {}
	ads := make([]*netsim.Adapter, n)
	for i := range ads {
		ip := transport.MakeIP(10, 1, byte(i/200), byte(i%200+1))
		res.Attach(ip, "seg")
		ads[i] = net.AddAdapter(ip, fmt.Sprintf("n%d", i))
		ads[i].JoinGroup(transport.BeaconGroup, transport.PortBeacon)
		ads[i].Bind(transport.PortBeacon, nop)
		ads[i].Bind(transport.PortHeartbeat, nop)
	}
	net.Ensure()
	beacon := p.firstPayload(transport.PortBeacon, true)
	if beacon == nil {
		beacon = wire.Encode(&wire.Beacon{Sender: ads[0].LocalIP(), Node: "n0"})
	}
	group := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	sends := 1 + 400_000/n
	total := p.timed(fmt.Sprintf("netsim.Multicast[n=%d]", n), sends, func() {
		for i := 0; i < sends; i++ {
			_ = ads[i%n].Multicast(transport.PortBeacon, group, beacon)
			if i%64 == 63 {
				sched.Run()
			}
		}
		sched.Run()
	})
	mcastNs = total / float64(sends*(n-1))

	hb := p.firstPayload(transport.PortHeartbeat, false)
	if hb == nil {
		hb = wire.Encode(&wire.Heartbeat{From: ads[0].LocalIP(), Seq: 1})
	}
	const ucasts = 200_000
	total = p.timed("netsim.Unicast", ucasts, func() {
		for i := 0; i < ucasts; i++ {
			dst := transport.Addr{IP: ads[(i+1)%n].LocalIP(), Port: transport.PortHeartbeat}
			_ = ads[i%n].Unicast(transport.PortHeartbeat, dst, hb)
			if i%1024 == 1023 {
				sched.Run()
			}
		}
		sched.Run()
	})
	ucastNs = total / ucasts
	p.unit["netsim.mcast_ns_per_delivery"] = mcastNs
	p.unit["netsim.ucast_ns"] = ucastNs
	p.layerNs["netsim"] += float64(p.cap.mcastDeliveries.Load())*mcastNs + float64(p.cap.ucastDels.Load())*ucastNs
	return mcastNs, ucastNs
}

// probeSim times the bare event kernel at the queue depth the workload
// reached: pending self-rearming timers, nothing else.
func (p *probeRun) probeSim(pending int) float64 {
	if pending < 1 {
		pending = 1
	}
	sched := sim.NewScheduler(p.seed)
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < pending; i++ {
		var fn func()
		period := time.Second + time.Duration(rng.Int63n(int64(time.Second)))
		fn = func() { sched.Schedule(period, fn) }
		sched.Schedule(time.Duration(rng.Int63n(int64(time.Second))), fn)
	}
	const events = 1_000_000
	total := p.timed(fmt.Sprintf("sim.Step[pending=%d]", pending), events, func() {
		for i := 0; i < events; i++ {
			sched.Step()
		}
	})
	ns := total / events
	p.unit["sim.event_ns"] = ns
	// Deliveries are charged to netsim (their unit cost includes the event).
	other := p.count("sim.events_fired") - float64(p.cap.deliveries())
	if other > 0 {
		p.layerNs["sim"] += other * ns
	}
	return ns
}

// probeBeaconIngest replays the captured beacons into n standalone
// daemons in fan-out order (each beacon to every daemon, as the segment
// delivers it), six passes: the first inserts into each heard table, the
// rest re-confirm — the mix of a Tb = 5 s beacon phase at 1 s intervals.
func (p *probeRun) probeBeaconIngest(n int, decodeNs float64) {
	var b wire.Beacon
	seen := map[transport.IP]bool{}
	var beacons [][]byte
	for _, s := range p.cap.packets.kept {
		if s.port != transport.PortBeacon || wire.DecodeInto(s.payload, &b) != nil || seen[b.Sender] {
			continue
		}
		seen[b.Sender] = true
		beacons = append(beacons, s.payload)
		if len(beacons) == n {
			break
		}
	}
	if len(beacons) == 0 {
		return
	}
	sched := sim.NewScheduler(p.seed)
	handlers := make([]transport.Handler, 0, n)
	for i := 0; i < n; i++ {
		ep := newSinkEndpoint(transport.MakeIP(10, 200, byte(i/200), byte(i%200+1)))
		d, err := core.NewDaemon(core.DefaultConfig(), fmt.Sprintf("probe-%03d", i), simClock{sched},
			rand.New(rand.NewSource(p.seed+int64(i))), []transport.Endpoint{ep})
		if err != nil {
			panic(err)
		}
		d.Start()
		handlers = append(handlers, ep.handlers[transport.PortBeacon])
	}
	const passes = 6
	src := transport.Addr{Port: transport.PortBeacon}
	dst := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	calls := passes * len(beacons) * len(handlers)
	total := p.timed(fmt.Sprintf("core.onBeaconPacket[heard=%d daemons=%d]", len(beacons), n), calls, func() {
		for pass := 0; pass < passes; pass++ {
			for _, pkt := range beacons {
				for _, h := range handlers {
					h(src, dst, pkt)
				}
			}
		}
	})
	ns := total / float64(calls)
	p.unit["core.beacon_ingest_ns"] = ns
	// The decode inside the handler is already charged to wire.
	if own := ns - decodeNs; own > 0 {
		p.layerNs["core"] += p.count("core.beacons_rx") * own
	}
}

// probeTwoPhase cold-starts the workload's own farm shape one kernel
// event at a time and sums the wall time of exactly those events that
// emitted a 2PC trace record (prepare, ack, commit, view install), then
// divides by committed rounds. The figure includes the delivery and
// decode of the round's packets; the share arithmetic takes those out,
// since netsim and wire are charged for them already.
func (p *probeRun) probeTwoPhase(build func() (*farm.Farm, error), perPacketNs float64) {
	f, err := build()
	if err != nil {
		p.problems = append(p.problems, fmt.Sprintf("two-phase probe: %v", err))
		return
	}
	if f.Sched == nil {
		p.problems = append(p.problems, "two-phase probe: farm has no single scheduler to step")
		return
	}
	c := newCapture()
	f.Trace.Enable(true)
	f.Trace.AddSink(c.sink)
	f.Start()
	var acc time.Duration
	steps2pc := 0
	id := p.sl.begin("core.2pc[step mode]")
	for i := 0; i < 20_000_000; i++ {
		if i%4096 == 0 {
			if ac := f.ActiveCentral(); ac != nil && ac.Stable() {
				break
			}
		}
		t0 := time.Now()
		if !f.Sched.Step() {
			break
		}
		if c.twoPCHit {
			acc += time.Since(t0)
			steps2pc++
			c.twoPCHit = false
		}
	}
	rounds := float64(c.kinds[trace.KCommitSent])
	p.sl.end(id, int(rounds))
	if rounds == 0 {
		return
	}
	ns := float64(acc) / rounds
	p.unit["core.twophase_round_ns"] = ns
	own := ns - float64(steps2pc)/rounds*perPacketNs
	// Scale by the workload's rounds: every committed round ends in one
	// KCommitSent; the traced rep counted view installs, and the probe
	// farm gives installs per round.
	installs := float64(c.kinds[trace.KViewCommit])
	if own > 0 && installs > 0 {
		p.layerNs["core"] += p.count("core.view_commits") / installs * rounds * own
	}
}

// probeAmg times building a committed view of the given size from a
// member list in wire order (strictly descending by IP, which every
// view-carrying message uses), once per view install the workload did.
func (p *probeRun) probeAmg(size int) {
	members := make([]wire.Member, size)
	for i := range members {
		n := size - 1 - i
		members[i] = wire.Member{IP: transport.MakeIP(10, 1, byte(n/200), byte(n%200+1)), Node: fmt.Sprintf("node-%03d", n)}
	}
	ns := p.batch(fmt.Sprintf("amg.New[%d members]", size), 20_000, func() {
		amgSink = amg.New(7, members)
	})
	p.unit["amg.new_ns"] = ns
	p.layerNs["amg"] += p.count("core.view_commits") * ns
}

var amgSink amg.Membership

// probeFarmBuild times farm.Build for the workload's shape. Building is
// set-up, not cell, so it has no share of rep_s.
func (p *probeRun) probeFarmBuild(build func() (*farm.Farm, error)) {
	var secs []float64
	adapters := 0
	for i := 0; i < 3; i++ {
		ns := p.timed("farm.Build", 1, func() {
			f, err := build()
			if err != nil {
				panic(err)
			}
			adapters = len(f.AdapterIPs())
			if f.Shards != nil {
				f.Shards.Stop()
			}
		})
		secs = append(secs, ns/1e9)
	}
	if adapters > 0 {
		p.unit["farm.build_s_per_1k_adapters"] = median(secs) / float64(adapters) * 1000
	}
}

// probeMetrics times Registry.Observe over the captured transmissions.
func (p *probeRun) probeMetrics(attached bool) {
	reg := metrics.NewRegistry()
	var traces []netsim.Trace
	for i, s := range p.cap.packets.kept {
		traces = append(traces, netsim.Trace{
			Dst: transport.Addr{Port: s.port}, Segment: fmt.Sprintf("vlan-%d", i%4),
			Bytes: len(s.payload), Multicast: s.multicast, Receivers: s.receivers,
		})
	}
	if len(traces) == 0 {
		return
	}
	rounds := 1 + 200_000/len(traces)
	ns := p.batch("metrics.Observe", rounds, func() {
		for _, tr := range traces {
			reg.Observe(tr)
		}
	}) / float64(len(traces))
	p.unit["metrics.observe_ns"] = ns
	if attached {
		p.layerNs["metrics"] += p.count("netsim.msgs") * ns
	}
}

// probeTrace times Recorder.Record over the captured records, with the
// recorder in the state the untraced workload runs it in.
func (p *probeRun) probeTrace(enabled bool) {
	recs := p.cap.records.kept
	if len(recs) == 0 {
		return
	}
	r := trace.New(0)
	r.Enable(enabled)
	rounds := 1 + 400_000/len(recs)
	ns := p.batch(fmt.Sprintf("trace.Record[enabled=%v]", enabled), rounds, func() {
		for _, rec := range recs {
			r.Record(rec)
		}
	}) / float64(len(recs))
	p.unit["trace.record_ns"] = ns
	p.layerNs["trace"] += p.count("trace.records") * ns
}

// probeCheck times the invariant engine per record. The engine consults
// live farm state, so it is given the (finished) traced farm as context.
func (p *probeRun) probeCheck(ctx check.Context) {
	recs := p.cap.records.kept
	if len(recs) == 0 {
		return
	}
	eng := check.NewEngine(ctx)
	rounds := 1 + 100_000/len(recs)
	ns := p.batch("check.Engine.Observe", rounds, func() {
		for _, rec := range recs {
			eng.Observe(rec)
		}
	}) / float64(len(recs))
	p.unit["check.observe_ns"] = ns
	p.layerNs["check"] += p.count("trace.records") * ns
}

// probeSpan times Audit and Stitch over the records the collector kept.
// Both are super-linear in the record count, so the figure is quoted per
// 100k records at the workload's own record count.
func (p *probeRun) probeSpan(records []trace.Record, topo span.Topology) {
	if len(records) == 0 {
		return
	}
	per100k := 100_000 / float64(len(records))
	var stitch, audit []float64
	for i := 0; i < 3; i++ {
		stitch = append(stitch, p.timed("span.Stitch", 1, func() { span.Stitch(records, topo) })/1e9)
		audit = append(audit, p.timed("span.Audit", 1, func() { span.Audit(records, topo) })/1e9)
	}
	p.unit["span.stitch_s_per_100k"] = median(stitch) * per100k
	p.unit["span.audit_s_per_100k"] = median(audit) * per100k
	p.layerNs["span"] += (median(stitch) + median(audit)) * 1e9
}

// probeDetect runs one bidirectional-ring detector over a view of the
// given size on a private clock and times its ticks.
func (p *probeRun) probeDetect(size int, params detect.Params) {
	sched := sim.NewScheduler(p.seed)
	members := make([]wire.Member, size)
	for i := range members {
		members[i] = wire.Member{IP: transport.MakeIP(10, 1, 0, byte(size-i))}
	}
	env := &detectEnv{self: members[size/2].IP, clock: simClock{sched}, rng: rand.New(rand.NewSource(p.seed))}
	det := detect.New(detect.BiRing, params, env)
	det.Reconfigure(amg.New(1, members))
	left, right := amg.New(1, members).Neighbors(env.self)
	const ticks = 200_000
	hb := &wire.Heartbeat{}
	total := p.timed("detect.tick", ticks, func() {
		for i := 0; i < ticks; i++ {
			// Neighbours stay alive, so ticks take the no-suspicion path.
			hb.From = left
			det.Handle(left, hb)
			hb.From = right
			det.Handle(right, hb)
			sched.RunFor(params.Interval)
		}
	})
	det.Stop()
	ns := total / ticks
	p.unit["detect.tick_ns"] = ns
	// One tick sends a heartbeat to each of two neighbours.
	p.layerNs["detect"] += p.count("detect.heartbeats") / 2 * ns
}

type detectEnv struct {
	self  transport.IP
	clock transport.Clock
	rng   *rand.Rand
}

func (e *detectEnv) Self() transport.IP                             { return e.self }
func (e *detectEnv) Clock() transport.Clock                         { return e.clock }
func (e *detectEnv) Rand() *rand.Rand                               { return e.rng }
func (e *detectEnv) Send(transport.IP, wire.Message)                {}
func (e *detectEnv) ReportSuspect(transport.IP, wire.SuspectReason) {}

// probeServe runs a serving plane over a static two-domain directory on
// a private clock and times its accounting ticks.
func (p *probeRun) probeServe(cfg serve.Config, frontEnds int, simSeconds float64) {
	sched := sim.NewScheduler(p.seed)
	dir := staticDir{}
	for _, dom := range []string{"acme", "globex"} {
		for i := 0; i < frontEnds; i++ {
			dir[dom] = append(dir[dom], fmt.Sprintf("%s-fe-%02d", dom, i))
		}
	}
	plane := serve.Attach(cfg, simClock{sched}, event.NewBus(false), dir, dir, nil, nil, nil)
	plane.Start()
	sched.RunFor(30 * time.Second) // fill the session rings
	const ticks = 20_000
	total := p.timed("serve.tick", ticks, func() { sched.RunFor(ticks * 100 * time.Millisecond) })
	plane.Stop()
	ns := total / ticks
	p.unit["serve.tick_ns"] = ns
	p.layerNs["serve"] += simSeconds * 10 * ns // default tick is 100 ms
}

// staticDir is a fixed serve.Directory and serve.Oracle.
type staticDir map[string][]string

func (d staticDir) Domains() []string             { return []string{"acme", "globex"} }
func (d staticDir) FrontEnds(dom string) []string { return d[dom] }
func (d staticDir) Serves(node, dom string) bool  { return true }
func (d staticDir) DomainOf(n string) (string, bool) {
	for dom, nodes := range d {
		for _, x := range nodes {
			if x == n {
				return dom, true
			}
		}
	}
	return "", false
}

// probeConfigDB times the two configdb calls Central makes.
func (p *probeRun) probeConfigDB(db *configdb.DB, groups map[transport.IP][]transport.IP, lookups float64) {
	switches := db.Switches()
	i := 0
	ns := p.batch(fmt.Sprintf("configdb.AdaptersOnSwitch[%d adapters]", len(db.Adapters())), 2000, func() {
		db.AdaptersOnSwitch(switches[i%len(switches)])
		i++
	})
	p.unit["configdb.adapters_on_switch_ns"] = ns
	p.unit["configdb.verify_ns"] = p.batch("configdb.Verify", 5, func() { db.Verify(groups) })
	p.layerNs["configdb"] += lookups * ns
}

// countingStore counts what a journal persists; MemStore has no counters.
type countingStore struct {
	journal.Store
	appends, snapshots int
}

func (s *countingStore) Append(rec journal.Record) error {
	s.appends++
	return s.Store.Append(rec)
}

func (s *countingStore) SetSnapshot(snap journal.Snapshot) error {
	s.snapshots++
	return s.Store.SetSnapshot(snap)
}

// probeJournal times appends of one group-sized update to a memory and a
// file store (a temporary directory under dir, removed afterwards), and
// replay per record on reopen.
func (p *probeRun) probeJournal(groupSize int, dir string, records float64) {
	members := make([]wire.Member, groupSize)
	for i := range members {
		members[i] = wire.Member{IP: transport.MakeIP(10, 1, 0, byte(i+1)), Node: fmt.Sprintf("node-%04d", i)}
	}
	src := transport.Addr{IP: members[0].IP, Port: transport.PortReport}
	appendN := func(j *journal.Journal, n int) func() {
		v := uint64(0)
		return func() {
			for i := 0; i < n; i++ {
				v++
				// Distinct groups, as the storm writes them; adapter flips
				// ride along at the workload's ratio (one per member).
				j.GroupUpdate(time.Duration(v), transport.IP(v%512+1), v, src, members)
			}
		}
	}
	const n = 4000
	mem := journal.NewMem()
	memNs := p.timed("journal.Append[mem]", n, appendN(mem, n)) / n
	p.unit["journal.append_ns"] = memNs
	p.layerNs["journal"] += records * memNs

	if err := p.probeJournalFile(dir, appendN); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("journal file probe: %v", err))
	}
}

// probeJournalFile is the file-store half of probeJournal.
func (p *probeRun) probeJournalFile(dir string, appendN func(*journal.Journal, int) func()) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(dir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fs, err := journal.NewFileStore(tmp, journal.FileOptions{})
	if err != nil {
		return err
	}
	fj, err := journal.New(fs, journal.Options{})
	if err != nil {
		return err
	}
	// 200 appends stay below the compaction threshold, so reopening
	// replays every one of them.
	const fn = 200
	p.unit["journal.append_file_ns"] = p.timed("journal.Append[file]", fn, appendN(fj, fn)) / fn
	if err := fj.Close(); err != nil {
		return err
	}
	fs2, err := journal.NewFileStore(tmp, journal.FileOptions{})
	if err != nil {
		return err
	}
	var reopenErr error
	replay := p.timed("journal.New[replay]", fn, func() {
		j, err := journal.New(fs2, journal.Options{})
		if err != nil {
			reopenErr = err
			return
		}
		reopenErr = j.Close()
	})
	p.unit["journal.replay_ns_per_record"] = replay / fn
	return reopenErr
}

// probeEvent times Bus.Publish with one counting subscriber.
func (p *probeRun) probeEvent(events float64) {
	bus := event.NewBus(false)
	n := 0
	bus.Subscribe(func(event.Event) { n++ })
	e := event.Event{Kind: event.AdapterFailed, Node: "node-0001", Adapter: transport.MakeIP(10, 1, 0, 1)}
	ns := p.batch("event.Publish", 500_000, func() { bus.Publish(e) })
	p.unit["event.publish_ns"] = ns
	p.layerNs["event"] += events * ns
}
