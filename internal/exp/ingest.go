package exp

import (
	"fmt"
	"math/rand"
	"slices"
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

// E19: one GulfStream Central absorbing a whole farm's reports at once —
// the §4.2 scalability argument ("limiting database access to Central
// alone") put to a number. A standalone Central with a configuration
// database and a memory journal is fed, with no daemons in the loop, the
// resync storm a freshly activated Central receives (every leader's full
// report), then 1 % of the nodes failing and recovering as deltas, then
// every leader's full again as a no-op. The corpus follows the rules of
// bench's central_storm workload, whose cell is the 8 192-adapter point.

const (
	ingestGroupSize    = 16  // adapters per AMG
	ingestSwitchShare  = 16  // nodes per switch
	ingestVictimShare  = 100 // one node in this many fails and recovers
	ingestMaxNodes     = 1 << 16
	ingestSnapshots    = 4 // see ingestCounts.Snapshots
	ingestResyncRounds = 3 // central.Activate multicasts its pull this often
)

// ingestSizes are the farm sizes E19 sweeps (8 k to 128 k adapters, two
// per node); the scaled-down variant keeps the first two.
var ingestSizes = []int{8192, 16384, 32768, 65536, 131072}

// ingestCounts are the outcomes of one point that depend on nothing but
// the farm size: the committed columns of E19.
type ingestCounts struct {
	Reports       int // fulls + deltas + no-op fulls, each acknowledged
	Notifications int // events published on the bus
	NodeFailed    int
	NodeRecovered int
	Resyncs       int // resync requests delivered to reporting daemons
	JournalSeq    uint64
	// Snapshots the journal store was asked for: two by Activate (Reset,
	// BeginEpoch), one at the SnapEvery floor while the log still equals
	// the state, and one when the deltas push the log past the state.
	Snapshots int
}

// ingestResult is one measured point.
type ingestResult struct {
	Adapters int
	ingestCounts
	// Wall-clock per phase on this host: printed, never committed.
	Cold, Deltas, Noop time.Duration
}

// total is the wall-clock of the whole ingest.
func (r ingestResult) total() time.Duration { return r.Cold + r.Deltas + r.Noop }

// expectedIngest derives a point's counts from the corpus rules.
func expectedIngest(nodes int) ingestCounts {
	groups := 2 * nodes / ingestGroupSize
	victims := nodes / ingestVictimShare
	return ingestCounts{
		// Every group reports in full twice; a victim's two adapters
		// each leave and rejoin.
		Reports: 2*groups + 4*victims,
		// CentralElected, a GroupFormed per group, and per victim:
		// 2 AdapterFailed + 2 GroupChanged + NodeFailed, then the same
		// for the recovery.
		Notifications: 1 + groups + 10*victims,
		NodeFailed:    victims,
		NodeRecovered: victims,
		Resyncs:       ingestResyncRounds * nodes / ingestGroupSize,
		// A full journals its members' flips and the group; a delta
		// journals a flip and the group, and every second one a node flip.
		JournalSeq: uint64(groups*(ingestGroupSize+1) + 10*victims),
		Snapshots:  ingestSnapshots,
	}
}

type ingestReport struct {
	src transport.Addr
	rep *wire.Report
}

// snapshotCounter counts the snapshots a journal asks its store for.
type snapshotCounter struct {
	journal.Store
	n int
}

func (s *snapshotCounter) SetSnapshot(snap journal.Snapshot) error {
	s.n++
	return s.Store.SetSnapshot(snap)
}

// schedClock adapts a scheduler to transport.Clock.
type schedClock struct{ s *sim.Scheduler }

func (c schedClock) Now() time.Duration { return c.s.Now() }
func (c schedClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

func ingestIP(adapter, node int) transport.IP {
	return transport.MakeIP(10, byte(1+adapter), byte(node>>8), byte(node))
}

func ingestNode(n int) string { return fmt.Sprintf("node-%05d", n) }

// ingestPoint runs one farm size and checks its outcome: the final view
// must equal the generated truth with no node left dead, the journal must
// fold to the live state, every report must be acknowledged, and the
// counts must be the ones the corpus rules predict.
func ingestPoint(adapters int, seed int64) (ingestResult, error) {
	res := ingestResult{Adapters: adapters}
	nodes := adapters / 2
	if nodes < ingestVictimShare || nodes > ingestMaxNodes || nodes%ingestGroupSize != 0 {
		return res, fmt.Errorf("exp: ingest: %d adapters: want a multiple of %d between %d and %d",
			adapters, 2*ingestGroupSize, 2*ingestVictimShare, 2*ingestMaxNodes)
	}
	groups := nodes / ingestGroupSize // per adapter class
	switches := nodes / ingestSwitchShare
	leaderOf := func(g int) int { return g*ingestGroupSize + ingestGroupSize - 1 }

	db := configdb.New()
	for n := 0; n < nodes; n++ {
		for a := 0; a < 2; a++ {
			err := db.AddAdapter(configdb.AdapterSpec{
				IP: ingestIP(a, n), Node: ingestNode(n), Index: a,
				VLAN:   1000 + a*nodes + n/ingestGroupSize,
				Switch: fmt.Sprintf("sw-%04d", n%switches), Port: 1 + 2*(n/switches) + a,
			})
			if err != nil {
				return res, err
			}
		}
	}

	// Central's administrative adapter, and one per reporting daemon so
	// acknowledgements and resync requests have somewhere to arrive.
	sched := sim.NewScheduler(seed)
	resolver := netsim.NewStaticResolver()
	net := netsim.New(sched, resolver)
	net.SetDefaultProfile(netsim.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
	centralIP := transport.MakeIP(10, 0, 250, 1)
	resolver.Attach(centralIP, "admin")
	ep := net.AddAdapter(centralIP, "central-host")
	acks := 0
	onReportPlane := func(_, _ transport.Addr, pkt []byte) {
		switch t, _ := wire.Peek(pkt); t {
		case wire.TReportAck:
			acks++
		case wire.TResync:
			res.Resyncs++
		}
	}
	srcOf := func(g int) transport.Addr {
		return transport.Addr{IP: ingestIP(0, leaderOf(g)), Port: transport.PortReport}
	}
	for g := 0; g < groups; g++ {
		resolver.Attach(srcOf(g).IP, "admin")
		ad := net.AddAdapter(srcOf(g).IP, ingestNode(leaderOf(g)))
		ad.Bind(transport.PortReport, onReportPlane)
		ad.JoinGroup(transport.BeaconGroup, transport.PortReport)
	}

	// The corpus. Group g of adapter class a holds that adapter of nodes
	// 16g..16g+15; its leader (the last node) reports from its
	// administrative address. Victims are never leaders.
	rng := rand.New(rand.NewSource(seed))
	victim := map[int]bool{}
	for len(victim) < nodes/ingestVictimShare {
		if n := rng.Intn(nodes); n%ingestGroupSize != ingestGroupSize-1 {
			victim[n] = true
		}
	}
	victims := make([]int, 0, len(victim))
	for n := range victim {
		victims = append(victims, n)
	}
	slices.Sort(victims)

	member := func(a, n int) wire.Member {
		return wire.Member{IP: ingestIP(a, n), Node: ingestNode(n), Index: uint8(a), Admin: a == 0}
	}
	seq := map[transport.IP]uint64{}
	next := func(src transport.IP) uint64 { seq[src]++; return seq[src] }
	version := map[transport.IP]uint64{}
	members := map[transport.IP][]wire.Member{}
	truth := map[transport.IP][]transport.IP{}
	var fulls, deltas, noops []ingestReport
	for a := 0; a < 2; a++ {
		for g := 0; g < groups; g++ {
			leader := ingestIP(a, leaderOf(g))
			for i := ingestGroupSize - 1; i >= 0; i-- {
				n := g*ingestGroupSize + i
				members[leader] = append(members[leader], member(a, n))
				truth[leader] = append(truth[leader], ingestIP(a, n))
			}
			slices.Sort(truth[leader])
			version[leader] = 1
			fulls = append(fulls, ingestReport{srcOf(g), &wire.Report{
				Leader: leader, Version: 1, Full: true, Members: members[leader]}})
		}
	}
	// Leaders' reports arrive in the seed's order; a daemon's sequence
	// numbers follow its own send order.
	rng.Shuffle(len(fulls), func(i, j int) { fulls[i], fulls[j] = fulls[j], fulls[i] })
	for _, f := range fulls {
		f.rep.Seq = next(f.src.IP)
	}
	for _, leave := range []bool{true, false} {
		for _, n := range victims {
			g := n / ingestGroupSize
			for a := 0; a < 2; a++ {
				leader := ingestIP(a, leaderOf(g))
				version[leader]++
				rep := &wire.Report{Leader: leader, Version: version[leader], Seq: next(srcOf(g).IP)}
				if leave {
					rep.Left = []transport.IP{ingestIP(a, n)}
				} else {
					rep.Members = []wire.Member{member(a, n)}
				}
				deltas = append(deltas, ingestReport{srcOf(g), rep})
			}
		}
	}
	for _, f := range fulls {
		l := f.rep.Leader
		noops = append(noops, ingestReport{f.src, &wire.Report{
			Leader: l, Version: version[l], Seq: next(f.src.IP), Full: true, Members: members[l]}})
	}

	store := &snapshotCounter{Store: journal.NewMemStore()}
	jr, err := journal.New(store, journal.Options{})
	if err != nil {
		return res, err
	}
	defer jr.Close()
	bus := event.NewBus(false)
	bus.Subscribe(func(e event.Event) {
		res.Notifications++
		switch e.Kind {
		case event.NodeFailed:
			res.NodeFailed++
		case event.NodeRecovered:
			res.NodeRecovered++
		}
	})
	c := central.New(central.DefaultConfig(), schedClock{sched}, bus, db)
	c.SetJournal(jr)
	net.Ensure()

	c.Activate(ep)
	for _, ph := range []struct {
		reps []ingestReport
		took *time.Duration
	}{{fulls, &res.Cold}, {deltas, &res.Deltas}, {noops, &res.Noop}} {
		t0 := time.Now()
		for _, r := range ph.reps {
			c.HandleReport(r.src, r.rep)
		}
		*ph.took = time.Since(t0)
		sched.RunFor(time.Second) // deliver the acknowledgements and resync pulls
	}
	res.Reports = len(fulls) + len(deltas) + len(noops)
	res.JournalSeq = jr.Seq()
	res.Snapshots = store.n

	got := c.Groups()
	if len(got) != len(truth) {
		return res, fmt.Errorf("exp: ingest %d: central tracks %d groups, the corpus has %d", adapters, len(got), len(truth))
	}
	for leader, want := range truth {
		if !slices.Equal(got[leader], want) {
			return res, fmt.Errorf("exp: ingest %d: group %v is %v, want %v", adapters, leader, got[leader], want)
		}
	}
	if dead := c.DeadNodes(); len(dead) != 0 {
		return res, fmt.Errorf("exp: ingest %d: %d nodes still dead, first %s", adapters, len(dead), dead[0])
	}
	if d := c.JournalDrift(); d != "" {
		return res, fmt.Errorf("exp: ingest %d: journal drift: %s", adapters, d)
	}
	if acks != res.Reports {
		return res, fmt.Errorf("exp: ingest %d: %d of %d reports acknowledged", adapters, acks, res.Reports)
	}
	if want := expectedIngest(nodes); res.ingestCounts != want {
		return res, fmt.Errorf("exp: ingest %d: counts %+v, the corpus rules give %+v", adapters, res.ingestCounts, want)
	}
	return res, nil
}

// ingest runs the sweep at seed 99. The table carries only the pinned
// counts; the per-point wall-clock goes to Table.Host and comes back
// beside it.
func ingest(adapters []int) (*Table, error) {
	t := &Table{
		ID:    "E19/ingest",
		Title: "one Central ingesting a farm-wide resync storm, 1 % node churn as deltas, then no-op fulls",
		Columns: []string{"adapters", "reports", "notifications", "node failed/recovered",
			"resyncs", "journal seq", "snapshots"},
	}
	var results []ingestResult
	for _, n := range adapters {
		r, err := ingestPoint(n, 99)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		t.addRow(fmt.Sprint(r.Adapters), fmt.Sprint(r.Reports), fmt.Sprint(r.Notifications),
			fmt.Sprintf("%d/%d", r.NodeFailed, r.NodeRecovered), fmt.Sprint(r.Resyncs),
			fmt.Sprint(r.JournalSeq), fmt.Sprint(r.Snapshots))
		base := results[0]
		t.hostNote("%7d adapters: cold %8.1f ms  deltas %6.1f ms  no-op %6.1f ms  total %8.1f ms  (%.2fx linear from %d)",
			r.Adapters, durMs(r.Cold), durMs(r.Deltas), durMs(r.Noop), durMs(r.total()),
			r.total().Seconds()/base.total().Seconds()*float64(base.Adapters)/float64(r.Adapters), base.Adapters)
	}
	t.note("every column follows from the corpus rules alone (groups of %d, one node in %d failing), so it is the same", ingestGroupSize, ingestVictimShare)
	t.note("on every host and at every seed; IngestPoint fails if any differs. Wall-clock per point is printed by")
	t.note("gsbench after the table and tracked by bench/ (central_storm is the 8192-adapter point), not committed here")
	return t, nil
}
