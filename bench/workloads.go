package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// workloads is the benchmark's fixed list. Each stresses different
// layers; README.md says which end-to-end metric each layer should move
// on which workload.
var workloads = []*workload{
	{
		name:   "coldstart_flat",
		why:    "one 500-adapter broadcast domain per segment: beacon decode, multicast fan-out and the heard table do nearly all the work",
		setup:  setupFlat,
		probes: probesFlat,
	},
	{
		name:   "coldstart_zoned",
		why:    "four 250-node zones on the 2-shard kernel: small segments, so windows, barriers and lanes carry the weight; cpu_s differs from rep_s",
		setup:  setupZoned,
		probes: probesZoned,
	},
	{
		name:   "churn",
		why:    "steady-state heartbeats, 2PC view changes, report to Central to balancer, with trace, invariant engine and span stitching on the path",
		setup:  setupChurn,
		probes: probesChurn,
	},
	{
		name:   "central_storm",
		why:    "a standalone Central ingests 512 full reports, node failures as deltas, then 512 no-op fulls: only central, configdb, journal, event run",
		setup:  setupStorm,
		probes: probesStorm,
	},
	{
		name:   "udp_pump",
		why:    "200k round trips over real loopback UDP sockets through transport.Runtime, window 16: the only workload where nothing is simulated",
		setup:  setupPump,
		probes: probesPump,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func buildFlat(seed int64) func() (*farm.Farm, error) {
	return func() (*farm.Farm, error) { return exp.ScaleFarm(exp.DefaultScale(), flatAdapters, seed) }
}

func probesFlat(p *probeRun) {
	const segment = flatAdapters / 2
	decM, decU := p.probeWire()
	_, ucast := p.probeNetsim(segment)
	p.probeSim(int(p.count("sim.pending_peak")))
	p.probeBeaconIngest(segment, decM)
	p.probeTwoPhase(buildFlat(p.seed), ucast+decU)
	p.probeAmg(segment)
	p.probeFarmBuild(buildFlat(p.seed))
	p.probeMetrics(true)
	p.probeTrace(false) // the untraced cold start runs with the recorder off
}

func probesZoned(p *probeRun) {
	// The sharded kernel admits neither the flight recorder nor a bus
	// subscriber, and the simulation is bit-identical at every shard
	// count: so the protocol counts come from one traced rep at shards=1,
	// and a plain rep there gives the speedup baseline.
	one := &workload{name: "coldstart_zoned", setup: func(seed int64, c *capture) (instance, error) {
		return setupZonedAt(seed, c, 1)
	}}
	if plain, err := oneRep(one, p.seed, nil, p.sl); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("shards=1 rep: %v", err))
	} else if p.repNs > 0 {
		p.unit["sim.shard_speedup"] = plain.repS * 1e9 / p.repNs
	}
	c1 := newCapture()
	if traced, err := oneRep(one, p.seed, c1, p.sl); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("traced shards=1 rep: %v", err))
	} else {
		for _, k := range []string{"core.view_commits", "core.twophase_abort_ratio", "detect.false_suspicion_ratio",
			"central.reports", "central.notifications", "central.resyncs_sent", "trace.records", "sim.pending_peak"} {
			p.out.counts[k] = traced.out.counts[k]
		}
		p.cap.records = c1.records
	}

	decM, decU := p.probeWire()
	_, ucast := p.probeNetsim(zoneNodes)
	p.probeSim(int(p.count("sim.pending_peak")))
	p.probeBarrier()
	p.probeBeaconIngest(zoneNodes, decM)
	oneZone := func() (*farm.Farm, error) {
		return exp.ScaleBFarm(zonedOptions(), zoneNodes*2, 1, p.seed)
	}
	p.probeTwoPhase(oneZone, ucast+decU)
	p.probeAmg(zoneNodes)
	p.probeFarmBuild(func() (*farm.Farm, error) {
		return exp.ScaleBFarm(zonedOptions(), zonedAdapters, zonedShards, p.seed)
	})
	p.probeMetrics(false) // sharded farms skip Metrics.Attach
	p.probeTrace(false)
}

// probeBarrier times the sharded kernel's window machinery alone: two
// shards, one trivial event per shard per window, so the wall time per
// window is synchronisation and merge.
func (p *probeRun) probeBarrier() {
	const lookahead = time.Millisecond
	sh := sim.NewShards(p.seed, zonedShards, lookahead)
	for i := 0; i < sh.N(); i++ {
		s := sh.Shard(i)
		var fn func()
		fn = func() { s.Schedule(lookahead, fn) }
		s.Schedule(0, fn)
	}
	const windows = 20_000
	total := p.timed(fmt.Sprintf("sim.Shards.RunFor[%d windows]", windows), windows, func() {
		sh.RunFor(windows * lookahead)
	})
	sh.Stop()
	ns := total / windows
	p.unit["sim.barrier_ns"] = ns
	p.layerNs["sim"] += p.count("sim.windows") * ns
}

func probesChurn(p *probeRun) {
	spec := churnSpec(p.seed)
	adminSegment := spec.AdminNodes + 2*(churnFrontEnds+churnBackEnds)
	build := func() (*farm.Farm, error) { return farm.Build(churnSpec(p.seed)) }
	decM, decU := p.probeWire()
	_, ucast := p.probeNetsim(adminSegment)
	p.probeSim(int(p.count("sim.pending_peak")))
	p.probeBeaconIngest(adminSegment, decM)
	p.probeTwoPhase(build, ucast+decU)
	p.probeAmg(adminSegment)
	p.probeDetect(adminSegment, spec.Core.DetectorParams)
	p.probeTrace(true)
	if p.cap.farm != nil {
		p.probeCheck(p.cap.farm)
		p.probeSpan(p.cap.spanRecords, p.cap.farm)
	}
	p.probeServe(serve.Config{Seed: p.seed, SessionsPerSec: churnSessions}, churnFrontEnds, p.cap.simSeconds)
	p.probeMetrics(true)
	p.probeJournal(churnFrontEnds+churnBackEnds, outDir, p.count("journal.records"))
	p.probeEvent(p.count("central.notifications"))
	p.probeFarmBuild(build)
}

func probesStorm(p *probeRun) {
	p.probeWire()
	p.probeNetsim(stormNodes/stormGroupSize + 1)
	p.probeSim(int(p.count("sim.pending_peak")))
	// Every member that joins or leaves makes Central look its switch's
	// wiring up: the initial fulls, then each victim adapter twice.
	lookups := float64(2*stormNodes + 4*stormVictims)
	p.probeConfigDB(p.cap.stormDB, p.cap.stormGroups, lookups)
	p.probeJournal(stormGroupSize, outDir, p.count("journal.records"))
	p.probeEvent(p.count("central.notifications"))
	// Central's own share is what its calls took less what they spent in
	// the layers beneath it.
	if own := p.cap.cellNs - p.layerNs["configdb"] - p.layerNs["journal"] - p.layerNs["event"]; own > 0 {
		p.layerNs["central"] += own
	}
}

func probesPump(p *probeRun) {
	// The corpus is its own capture: 7 heartbeats to 1 report out, the
	// matching replies back.
	hb := wire.Encode(&wire.Heartbeat{From: transport.MakeIP(127, 0, 0, 1), Seq: 1 << 20, Version: 1})
	ack := wire.Encode(&wire.ReportAck{From: transport.MakeIP(127, 0, 0, 2), Seq: 1 << 20})
	rep := pumpReport(rand.New(rand.NewSource(p.seed)).Perm(pumpReportMembers))
	big := wire.Encode(&rep)
	for i := 0; i < pumpReportEvery; i++ {
		out, back := hb, hb
		if i == 0 {
			out, back = big, ack
		}
		for _, pkt := range [][]byte{out, back} {
			p.cap.packets.kept = append(p.cap.packets.kept, packetSample{payload: pkt, port: pumpPort, receivers: 1})
			p.cap.bytes.Add(uint64(len(pkt)) * pumpRoundTrips / pumpReportEvery)
		}
	}
	p.cap.ucastMsgs.Store(2 * pumpRoundTrips)
	p.cap.ucastDels.Store(2 * pumpRoundTrips)
	p.probeWire()

	rt := transport.NewRuntime()
	rt.RunAsync()
	const posts = 200_000
	done := make(chan struct{})
	total := p.timed("transport.Runtime.Post", posts, func() {
		for i := 0; i < posts-1; i++ {
			rt.Post(func() {})
		}
		rt.Post(func() { close(done) })
		<-done
	})
	rt.Close()
	post := total / posts
	p.unit["transport.post_ns"] = post
	// Per round trip: two sends and two hand-offs to an event loop. The
	// two loops run on different cores, so these do not simply add up to
	// wall time; see README.md.
	p.layerNs["transport"] += pumpRoundTrips * 2 * (p.count("transport.send_ns") + post)
}
