package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/central"
	"repro/internal/configdb"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	stormNodes     = 4096 // × 2 adapters = 8192 adapters
	stormSwitches  = 256
	stormGroupSize = 16 // → 512 groups
	stormVictims   = stormNodes / 100
)

// stormReport is one report of the corpus with its reporting daemon.
type stormReport struct {
	src transport.Addr
	rep *wire.Report
	// flips marks the delta that completes a node-level change (the
	// second adapter of a victim leaving, the first rejoining).
	flips bool
}

// storm is a standalone Central — netsim endpoint, simulated clock,
// memory journal, one counting bus subscriber — fed the report storm a
// freshly failed-over Central receives when every leader resyncs at
// once, then a round of node failures and recoveries as deltas.
type storm struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	ep     *netsim.Adapter
	c      *central.Central
	db     *configdb.DB
	jr     *journal.Journal
	store  *countingStore
	cap    *capture
	events map[event.Kind]int
	acks   int
	resync int

	fulls, leaves, joins, noops []stormReport
	truth                       map[transport.IP][]transport.IP
	phaseNs                     [4]float64
	flipNs, plainNs             float64 // mean delta cost with / without a node flip
}

func stormIP(adapter, node int) transport.IP {
	return transport.MakeIP(10, byte(1+adapter), byte(node/200), byte(node%200+1))
}

func stormNode(n int) string { return fmt.Sprintf("node-%04d", n) }

func setupStorm(seed int64, cap *capture) (instance, error) {
	s := &storm{
		sched:  sim.NewScheduler(seed),
		db:     configdb.New(),
		cap:    cap,
		events: map[event.Kind]int{},
		truth:  map[transport.IP][]transport.IP{},
	}
	res := netsim.NewStaticResolver()
	s.net = netsim.New(s.sched, res)
	s.net.SetDefaultProfile(netsim.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
	if cap != nil {
		cap.attachNet(s.net, nil)
	}

	// The configuration database: every node on a switch, every adapter
	// on the VLAN of its group.
	for n := 0; n < stormNodes; n++ {
		for a := 0; a < 2; a++ {
			err := s.db.AddAdapter(configdb.AdapterSpec{
				IP: stormIP(a, n), Node: stormNode(n), Index: a,
				VLAN:   1000 + a*stormNodes + n/stormGroupSize,
				Switch: fmt.Sprintf("sw-%03d", n%stormSwitches), Port: 1 + 2*(n/stormSwitches) + a,
			})
			if err != nil {
				return nil, err
			}
		}
	}

	// Central's own administrative adapter, and one for each reporting
	// daemon so acknowledgements and resync requests have somewhere to go.
	centralIP := transport.MakeIP(10, 1, 250, 1)
	res.Attach(centralIP, "admin")
	s.ep = s.net.AddAdapter(centralIP, "central-host")
	onReportPlane := func(_, _ transport.Addr, pkt []byte) {
		switch t, _ := wire.Peek(pkt); t {
		case wire.TReportAck:
			s.acks++
		case wire.TResync:
			s.resync++
		}
	}

	// The corpus. Group g of adapter class a holds that adapter of nodes
	// 16g..16g+15; its leader (highest IP) is the last node, which
	// reports from its administrative address.
	rng := rand.New(rand.NewSource(seed))
	victim := map[int]bool{}
	for len(victim) < stormVictims {
		if n := rng.Intn(stormNodes); n%stormGroupSize != stormGroupSize-1 { // never a leader
			victim[n] = true
		}
	}
	victims := make([]int, 0, len(victim))
	for n := range victim {
		victims = append(victims, n)
	}
	sort.Ints(victims)

	seq := map[transport.IP]uint64{}
	next := func(src transport.IP) uint64 { seq[src]++; return seq[src] }
	version := map[transport.IP]uint64{}
	groups := stormNodes / stormGroupSize
	members := map[transport.IP][]wire.Member{}
	srcOf := func(g int) transport.Addr {
		return transport.Addr{IP: stormIP(0, g*stormGroupSize+stormGroupSize-1), Port: transport.PortReport}
	}
	for g := 0; g < groups; g++ {
		src := srcOf(g)
		res.Attach(src.IP, "admin")
		ad := s.net.AddAdapter(src.IP, stormNode(g*stormGroupSize+stormGroupSize-1))
		ad.Bind(transport.PortReport, onReportPlane)
		ad.JoinGroup(transport.BeaconGroup, transport.PortReport)
	}
	for a := 0; a < 2; a++ {
		for g := 0; g < groups; g++ {
			leader := stormIP(a, g*stormGroupSize+stormGroupSize-1)
			var ms []wire.Member
			for i := stormGroupSize - 1; i >= 0; i-- {
				n := g*stormGroupSize + i
				ms = append(ms, wire.Member{IP: stormIP(a, n), Node: stormNode(n), Index: uint8(a), Admin: a == 0})
				s.truth[leader] = append(s.truth[leader], stormIP(a, n))
			}
			sort.Slice(s.truth[leader], func(i, j int) bool { return s.truth[leader][i] < s.truth[leader][j] })
			members[leader] = ms
			version[leader] = 1
			s.fulls = append(s.fulls, stormReport{src: srcOf(g), rep: &wire.Report{
				Leader: leader, Version: 1, Full: true, Members: ms}})
		}
	}
	// The order leaders' reports arrive in is the seed's; a daemon's
	// sequence numbers follow its own send order.
	rng.Shuffle(len(s.fulls), func(i, j int) { s.fulls[i], s.fulls[j] = s.fulls[j], s.fulls[i] })
	for _, f := range s.fulls {
		f.rep.Seq = next(f.src.IP)
	}

	for _, n := range victims {
		g := n / stormGroupSize
		for a := 0; a < 2; a++ {
			leader := stormIP(a, g*stormGroupSize+stormGroupSize-1)
			version[leader]++
			s.leaves = append(s.leaves, stormReport{src: srcOf(g), flips: a == 1, rep: &wire.Report{
				Leader: leader, Version: version[leader], Seq: next(srcOf(g).IP), Left: []transport.IP{stormIP(a, n)}}})
		}
	}
	for _, n := range victims {
		g := n / stormGroupSize
		for a := 0; a < 2; a++ {
			leader := stormIP(a, g*stormGroupSize+stormGroupSize-1)
			version[leader]++
			s.joins = append(s.joins, stormReport{src: srcOf(g), flips: a == 0, rep: &wire.Report{
				Leader: leader, Version: version[leader], Seq: next(srcOf(g).IP),
				Members: []wire.Member{{IP: stormIP(a, n), Node: stormNode(n), Index: uint8(a), Admin: a == 0}}}})
		}
	}
	for _, f := range s.fulls {
		l := f.rep.Leader
		s.noops = append(s.noops, stormReport{src: f.src, rep: &wire.Report{
			Leader: l, Version: version[l], Seq: next(f.src.IP), Full: true, Members: members[l]}})
	}

	s.store = &countingStore{Store: journal.NewMemStore()}
	jr, err := journal.New(s.store, journal.Options{})
	if err != nil {
		return nil, err
	}
	s.jr = jr
	bus := event.NewBus(false)
	bus.Subscribe(func(e event.Event) { s.events[e.Kind]++ })
	s.c = central.New(central.DefaultConfig(), simClock{s.sched}, bus, s.db)
	s.c.SetJournal(jr)
	s.net.Ensure()
	return s, nil
}

func (s *storm) reports() int { return len(s.fulls) + len(s.leaves) + len(s.joins) + len(s.noops) }

func (s *storm) run(sl *spanLog) error {
	sl.do("central.Activate", func() { s.c.Activate(s.ep) })
	phases := []struct {
		name string
		reps []stormReport
	}{
		{"central.HandleReport[full]", s.fulls},
		{"central.HandleReport[delta leave]", s.leaves},
		{"central.HandleReport[delta join]", s.joins},
		{"central.HandleReport[no-op full]", s.noops},
	}
	var flipNs, plainNs time.Duration
	flips, plains := 0, 0
	for i, ph := range phases {
		id := sl.begin(ph.name)
		t0 := time.Now()
		if i == 1 || i == 2 {
			// Deltas are few: time each, to tell the ones that flip a
			// node's state from the ones that do not.
			for _, r := range ph.reps {
				t1 := time.Now()
				s.c.HandleReport(r.src, r.rep)
				if d := time.Since(t1); r.flips {
					flipNs += d
					flips++
				} else {
					plainNs += d
					plains++
				}
			}
		} else {
			for _, r := range ph.reps {
				s.c.HandleReport(r.src, r.rep)
			}
		}
		s.phaseNs[i] = float64(time.Since(t0))
		sl.end(id, len(ph.reps))
		sl.do("sim.RunFor[1s]", func() { s.sched.RunFor(time.Second) })
	}
	if flips > 0 && plains > 0 {
		s.flipNs, s.plainNs = float64(flipNs)/float64(flips), float64(plainNs)/float64(plains)
	}
	return nil
}

func (s *storm) close() { _ = s.jr.Close() }

func (s *storm) check() outcome {
	out := outcome{
		ops:       float64(s.reports()),
		attempted: s.reports(),
		exact:     map[string]float64{},
		pins: map[string]float64{
			"journal_seq": float64(s.jr.Seq()), "acks": float64(s.acks),
			"node_failed": float64(s.events[event.NodeFailed]),
		},
	}
	total := 0
	for _, n := range s.events {
		total += n
	}
	out.pins["events"] = float64(total)

	got := s.c.Groups()
	wrong := 0
	for leader, want := range s.truth {
		if !equalIPs(got[leader], want) {
			wrong++
		}
	}
	if wrong != 0 || len(got) != len(s.truth) {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d groups differ from the generated truth (%d tracked)",
			wrong, len(s.truth), len(got)))
	}
	if dead := s.c.DeadNodes(); len(dead) != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d nodes still dead, first %s", len(dead), dead[0]))
	}
	lostFlips := 0
	for _, k := range []event.Kind{event.NodeFailed, event.NodeRecovered} {
		if n := s.events[k]; n != stormVictims {
			lostFlips += abs(stormVictims - n)
			out.problems = append(out.problems, fmt.Sprintf("%d %v events, want %d", n, k, stormVictims))
		}
	}
	if d := s.c.JournalDrift(); d != "" {
		out.problems = append(out.problems, "journal drift: "+d)
	}
	unacked := s.reports() - s.acks
	if unacked != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d reports never acknowledged", unacked, s.reports()))
	}
	out.failed = wrong + lostFlips + abs(unacked)
	out.notes = append(out.notes, fmt.Sprintf("%d reports (%d full, %d delta, %d no-op full), %d events, journal seq %d",
		s.reports(), len(s.fulls), len(s.leaves)+len(s.joins), len(s.noops), total, s.jr.Seq()))

	if s.cap != nil {
		deltas := float64(len(s.leaves) + len(s.joins))
		out.counts = map[string]float64{
			"central.full_report_ns":    s.phaseNs[0] / float64(len(s.fulls)),
			"central.delta_report_ns":   (s.phaseNs[1] + s.phaseNs[2]) / deltas,
			"central.noop_full_ns":      s.phaseNs[3] / float64(len(s.noops)),
			"central.correlate_node_ns": s.flipNs,
			"central.reports":           float64(s.reports()),
			"central.notifications":     float64(total),
			"central.resyncs_sent":      float64(s.resync),
			"journal.records":           float64(s.jr.Seq()),
			"journal.snapshots":         float64(s.store.snapshots),
			"sim.events_fired":          float64(s.sched.Fired()),
			"sim.pending_peak":          float64(s.sched.Pending()),
			"netsim.msgs":               float64(s.cap.mcastMsgs.Load() + s.cap.ucastMsgs.Load()),
			"netsim.bytes":              float64(s.cap.bytes.Load()),
			"netsim.dropped":            float64(s.cap.dropped.Load()),
		}
		if m := s.cap.mcastMsgs.Load(); m > 0 {
			out.counts["netsim.fanout_mean"] = float64(s.cap.mcastDeliveries.Load()) / float64(m)
		}
		s.cap.stormDB, s.cap.stormGroups = s.db, got
		s.cap.cellNs = s.phaseNs[0] + s.phaseNs[1] + s.phaseNs[2] + s.phaseNs[3]
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
