package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestOutrankedAdaptersKeepNothing starts a 64-adapter segment, all at once
// and in a shuffled order, and stops it every few microseconds while the
// first beacons are in flight. At every stop, an adapter that has heard a
// higher address holds one bit and nothing else, and one that has not
// holds exactly what the map model makes of the beacons it heard, every
// peer below its own address. Summed over the segment the peers held stay
// within 64·H₆₄: the k-th highest adapter keeps only the peers it hears
// before the first of the k-1 above it. At phase end only the top adapter
// forms, over the map's ungrouped set.
func TestOutrankedAdaptersKeepNothing(t *testing.T) {
	const n = 64
	h := newHarness(t, 11)
	cfg := fastConfig()
	rec := trace.New(1 << 17)
	var ds []*Daemon
	names := map[transport.IP]string{}
	for i := 1; i <= n; i++ {
		ip := ipn(0, byte(i))
		names[ip] = fmt.Sprintf("node-%02d", i)
		d := h.addNode(cfg, names[ip], []transport.IP{ip}, []string{"seg"})
		d.SetTracer(rec)
		ds = append(ds, d)
	}
	rand.New(rand.NewSource(11)).Shuffle(n, func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	for _, d := range ds {
		d.Start()
	}

	// models rebuilds, per adapter, what it heard from the trace.
	models := func() (map[transport.IP]heardModel, map[transport.IP]bool) {
		heard, outranked := map[transport.IP]heardModel{}, map[transport.IP]bool{}
		for _, r := range rec.Snapshot() {
			if r.Kind != trace.KBeaconHeard {
				continue
			}
			if heard[r.Self] == nil {
				heard[r.Self] = heardModel{}
			}
			heard[r.Self].put(r.Peer, 1, r.Group != 0, true, names[r.Peer])
			outranked[r.Self] = outranked[r.Self] || r.Peer > r.Self
		}
		return heard, outranked
	}
	bound := 0.0
	for k := 1; k <= n; k++ {
		bound += n / float64(k)
	}
	// check compares every adapter's set with its trace and returns the
	// peers held over the segment.
	check := func() int {
		heard, outranked := models()
		held := 0
		for _, d := range ds {
			p := d.adapters[0]
			assertHeldBelow(t, p)
			if outranked[p.self] {
				if !p.heard.outranked || p.heard.peers != nil {
					t.Fatalf("%v: %v heard a higher address but keeps %d peers (outranked=%v)",
						h.sched.Now(), p.self, len(p.heard.peers), p.heard.outranked)
				}
				continue
			}
			if p.heard.outranked {
				t.Fatalf("%v: %v is marked outranked but heard nobody above it", h.sched.Now(), p.self)
			}
			if got, want := p.heard.appendUngrouped(nil), heard[p.self].ungrouped(); !slices.Equal(got, want) {
				t.Fatalf("%v: %v holds %v, its beacons say %v", h.sched.Now(), p.self, got, want)
			}
			held += len(p.heard.peers)
		}
		if held > int(math.Floor(bound)) {
			t.Fatalf("%v: %d peers held over the segment, above 64·H₆₄ = %.1f", h.sched.Now(), held, bound)
		}
		return held
	}
	for step := 0; step < 80; step++ {
		h.run(10 * time.Microsecond)
		check()
	}
	// Shortly before phase end every adapter has beaconed to every other
	// at least once: only the top one is left holding peers, all 63.
	h.run(cfg.BeaconPhase - h.sched.Now() - time.Millisecond)
	if held := check(); held != n-1 {
		t.Fatalf("%d peers held just before phase end, want the top adapter's %d", held, n-1)
	}

	top := ipn(0, n)
	h.run(cfg.BeaconPhase - h.sched.Now() + time.Microsecond) // no Prepare has landed yet
	heard, _ := models()
	var formed []trace.Record
	for _, r := range rec.Snapshot() {
		if r.Kind == trace.KFormed {
			formed = append(formed, r)
		}
	}
	if len(formed) != 1 || formed[0].Self != top || formed[0].Count != n {
		t.Fatalf("formations %v, want one by %v over %d", formed, top, n)
	}
	for _, d := range ds {
		if p := d.adapters[0]; p.self != top && p.state != stDeferring {
			t.Errorf("%v is %v after the phase, want deferring", p.self, p.state)
		}
	}
	p := h.daemons[names[top]].adapters[0]
	want := append([]wire.Member{p.selfMember()}, heard[top].ungrouped()...)
	if p.state != stLeader || p.lead.round == nil || !slices.Equal(p.lead.round.target.Members, want) {
		t.Fatalf("top adapter %v proposes %v, want %v", p.state, p.lead.round, want)
	}
}

// TestOutrankedBeaconAllocatesNothing: once outranked, a beaconing adapter
// still decodes every beacon, but a new peer costs no node name.
func TestOutrankedBeaconAllocatesNothing(t *testing.T) {
	h := newHarness(t, 12)
	self := transport.MakeIP(10, 1, 0, 100)
	d := h.addNode(fastConfig(), "low", []transport.IP{self}, []string{"seg"})
	d.Start()
	p := d.adapters[0]
	to := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	var pkts [][]byte
	for i := 0; i < 400; i++ {
		ip := transport.MakeIP(10, 1, byte(i/200), byte(i%200+1))
		pkts = append(pkts, beaconPacket(ip, heardRef{inc: 1, admin: i%3 == 0, grouped: i%5 == 0, node: fmt.Sprintf("peer-%d", i)}))
	}
	p.onBeaconPacket(transport.Addr{}, to, pkts[len(pkts)-1])
	if !p.heard.outranked {
		t.Fatal("a beacon from a higher address did not outrank the adapter")
	}
	i := 0
	if got := testing.AllocsPerRun(len(pkts)-1, func() {
		p.onBeaconPacket(transport.Addr{}, to, pkts[i])
		i++
	}); got != 0 {
		t.Errorf("beacon to an outranked adapter: %.2f allocs, want 0", got)
	}
	if p.state != stBeaconing || len(p.heard.peers) != 0 {
		t.Errorf("state %v, %d peers held after %d new peers", p.state, len(p.heard.peers), i)
	}
}

// TestRestartForgetsOutranked: an adapter outranked in one life defers.
// Outranked again in its next life, it crashes mid-phase, before phase end
// could drop the set; restarted, it hears only lower peers and leads them.
// The beacons it heard while outranked were still traced.
func TestRestartForgetsOutranked(t *testing.T) {
	h := newHarness(t, 13)
	cfg := fastConfig()
	rec := trace.New(1 << 10)
	self := ipn(0, 5)
	d := h.addNode(cfg, "mid", []transport.IP{self}, []string{"seg"})
	d.SetTracer(rec)
	d.Start()
	p := d.adapters[0]
	to := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	feed := func(ips ...transport.IP) {
		for _, ip := range ips {
			p.onBeaconPacket(transport.Addr{IP: ip}, to, beaconPacket(ip, heardRef{inc: 1, admin: true, node: fmt.Sprint(ip)}))
		}
	}

	feed(ipn(0, 1), ipn(0, 9), ipn(0, 2))
	if !p.heard.outranked || countKind(rec.Snapshot(), trace.KBeaconHeard) != 3 {
		t.Fatalf("outranked=%v, %d beacons traced, want true and 3", p.heard.outranked, countKind(rec.Snapshot(), trace.KBeaconHeard))
	}
	h.run(cfg.BeaconPhase + time.Millisecond)
	if p.state != stDeferring {
		t.Fatalf("outranked adapter is %v after the phase, want deferring", p.state)
	}

	d.Crash()
	d.Start()
	feed(ipn(0, 9))
	h.run(cfg.BeaconPhase / 2)
	if p.state != stBeaconing || !p.heard.outranked {
		t.Fatalf("second life mid-phase: state %v, outranked=%v", p.state, p.heard.outranked)
	}
	d.Crash()
	d.Start()
	if p.heard.outranked {
		t.Fatal("a restart kept the outranked bit")
	}
	feed(ipn(0, 3), ipn(0, 1), ipn(0, 4))
	h.run(cfg.BeaconPhase + time.Millisecond)
	if p.state != stLeader || p.lead.round == nil {
		t.Fatalf("state %v after a phase with only lower peers, want leading a round", p.state)
	}
	var got []transport.IP
	for _, m := range p.lead.round.target.Members {
		got = append(got, m.IP)
	}
	if want := []transport.IP{self, ipn(0, 4), ipn(0, 3), ipn(0, 1)}; !slices.Equal(got, want) {
		t.Fatalf("restarted adapter proposes %v, want %v", got, want)
	}
}
