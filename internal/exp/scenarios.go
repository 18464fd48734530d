package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The scenario rows: leader and Central failover (E6), a Central-initiated
// domain move (E7), partition heal (E8), report-plane load (E9), database
// verification (E10) and journal-backed Central failover (E12).

// quick3 is the default core configuration with a 3 s beacon phase, and
// Central's with a 5 s quiet wait: farms that stabilize in seconds.
func quick3() (core.Config, central.Config) {
	cc := central.DefaultConfig()
	cc.StabilizeWait = 5 * time.Second
	return withTb(3 * time.Second), cc
}

// twoDomains is the Figure 2 shape: two management nodes and two domains
// of 2 front ends and 3 back ends, with the event log kept.
func twoDomains(seed int64) farm.Spec {
	cfg, cc := quick3()
	return farm.Spec{
		Seed:       seed,
		AdminNodes: 2,
		Domains: []farm.DomainSpec{
			{Name: "acme", FrontEnds: 2, BackEnds: 3},
			{Name: "globex", FrontEnds: 2, BackEnds: 3},
		},
		Core: cfg, Central: cc, RecordEvents: true,
	}
}

// killCentral is the bare failover op: it kills the Central host and
// leaves it down.
const killCentral = "@0s failover"

// recovery is one E6 or E12 trial's measure, every time from the kill of
// the Central host.
type recovery struct {
	// recommit is the first commit of a group of two or more without the
	// old host's admin adapter: the admin AMG recommitted under the
	// successor (0 when none was seen).
	recommit, elected, rebuilt time.Duration
	reports, journal           uint64 // report- and journal-plane messages
}

// centralKill is the trial E6 and E12 share: a farm of admin nodes and
// uniform two-adapter nodes stabilizes, settles for settle more, loses
// the node hosting Central, and runs until a new Central is elected and
// holds as many groups as the old one did, then for tail more. The event
// log gives the election, the plane counters the recovery's traffic.
func centralKill(seed int64, admins, uniform int, journal bool, settle, tail time.Duration, m *recovery) plan {
	var (
		old           transport.IP
		groups        int
		killed        time.Duration
		reports, jrnl uint64
	)
	elected := func(t *trial) time.Duration {
		for _, e := range t.Bus.Log() {
			if e.Kind == event.CentralElected && e.Time > killed {
				return e.Time
			}
		}
		return 0
	}
	cfg, cc := quick3()
	return plan{
		spec: farm.Spec{Seed: seed, AdminNodes: admins, UniformNodes: uniform, UniformAdapters: 2,
			Core: cfg, Central: cc, RecordEvents: true, Journal: journal},
		stages: []stage{
			{stable: 3 * time.Minute},
			{run: settle, at: func(t *trial) error {
				old = t.Daemons[t.ActiveCentralNode()].AdminIP()
				groups, killed = t.ActiveCentral().GroupCount(), t.anchor
				reports, jrnl = planes(t)
				return nil
			}, ops: killCentral},
			{until: func(t *trial) bool {
				c := t.ActiveCentral()
				return c != nil && elected(t) != 0 && c.GroupCount() >= groups
			}, every: 250 * time.Millisecond, limit: 3 * time.Minute,
				at: func(t *trial) error { m.rebuilt = t.anchor - killed; return nil }},
			{run: tail},
		},
		sink: func(t *trial, r trace.Record) {
			if r.Kind != trace.KViewCommit || old == 0 || m.recommit != 0 {
				return
			}
			if v, _ := t.ViewOf(r.Self); !v.Contains(old) && v.Size() > 1 {
				m.recommit = r.T - killed
			}
		},
		end: func(t *trial) error {
			m.elected = elected(t) - killed
			m.reports, m.journal = planes(t)
			m.reports, m.journal = m.reports-reports, m.journal-jrnl
			return nil
		},
	}
}

func planes(t *trial) (reports, journal uint64) {
	return t.Metrics.PlaneCounter(metrics.Plane(transport.PortReport)).Messages,
		t.Metrics.PlaneCounter(metrics.Plane(transport.PortJournal)).Messages
}

// failover measures (a) AMG leader death -> recommitted group under the
// successor, and (b) Central death -> new Central with a rebuilt view, on
// a farm of admin nodes plus four uniform nodes whose groups the new
// Central must rebuild. Cells are admin-node counts.
var failover = row[int, recovery]{
	cells:      []int{12},
	seeds:      []int64{41, 54, 67},
	quickSeeds: 1,
	plan: func(admins int, seed int64, m *recovery) plan {
		return centralKill(seed, admins, 4, false, 0, 0, m)
	},
	table: func(cells []int, ms [][]recovery) (*Table, int) {
		t := &Table{
			ID:      "E6/failover",
			Title:   fmt.Sprintf("leader and Central failover times (%d admin nodes)", cells[0]),
			Columns: []string{"trial", "leader death -> recommit(s)", "central death -> re-elected(s)", "central view rebuilt(s)"},
		}
		for i, r := range ms[0] {
			recommit := "n/a"
			if r.recommit > 0 {
				recommit = secs2(r.recommit)
			}
			t.addRow(fmt.Sprint(i+1), recommit, secs2(r.elected), secs2(r.rebuilt))
		}
		t.note("leader recommit = detect (k x Th) + consensus window + probe + 2PC;")
		t.note("view rebuild adds the successor's Ts quiet wait and full re-reports")
		return t, 0
	},
}

// journalFailover compares Central failover recovery with the journal off
// (cold successor: multicast resync pull, every leader re-reports) and on
// (warm standby: replay the streamed journal, verify only stale groups).
// The farm stabilizes and lets the standby stream drain for 5 s; after
// the view is rebuilt, 15 s more let stragglers (late resync responses,
// duplicate fulls) count. The farm is 4 admin and 16 uniform nodes;
// cells say whether it journals.
var journalFailover = row[bool, recovery]{
	cells:      []bool{false, true},
	seeds:      []int64{101, 108},
	quickSeeds: 1,
	plan: func(journaled bool, seed int64, m *recovery) plan {
		return centralKill(seed, 4, 16, journaled, 5*time.Second, 15*time.Second, m)
	},
	table: func(cells []bool, ms [][]recovery) (*Table, int) {
		t := &Table{
			ID:      "E12/journal-failover",
			Title:   "Central failover recovery, state journal off vs on (20 nodes)",
			Columns: []string{"trial", "journal", "view rebuilt(s)", "report msgs", "journal msgs"},
		}
		for trial := range ms[0] {
			for i, journaled := range cells {
				r := ms[i][trial]
				t.addRow(fmt.Sprint(trial+1), map[bool]string{false: "off", true: "on"}[journaled], secs2(r.rebuilt),
					fmt.Sprint(r.reports), fmt.Sprint(r.journal))
			}
		}
		t.note("off: the successor multicasts a resync pull 3x and every leader answers with a full report;")
		t.note("on: the successor replays the journal streamed to it while standby — streamed groups are")
		t.note("trusted, only stale ones get a unicast verification pull, so the report plane stays quieter")
		return t, 0
	},
}

// moveResult is one E7 trial's measure: when the move was ordered, when
// its VLAN writes landed and when Central inferred it (0: never), and
// the moved adapter's failure events since the order.
type moveResult struct {
	order, snmp, inferred    time.Duration
	suppressed, unsuppressed int
	findings                 int // Central's verification findings at the end
}

// move reproduces §3.1: Central moves a node between domains via SNMP
// VLAN rewriting; the old AMG recommits, the new AMG absorbs the node,
// Central infers the move and suppresses the false failure notifications.
// The event log is read two minutes after the order.
var move = row[string, moveResult]{
	cells:      []string{"acme-be-01"},
	seeds:      []int64{51, 68, 85},
	quickSeeds: 1,
	plan: func(mover string, seed int64, m *moveResult) plan {
		spec := twoDomains(seed)
		spec.Core.OrphanTimeout = 8 * time.Second
		return plan{
			spec: spec,
			stages: []stage{
				{stable: 3 * time.Minute, at: func(t *trial) error { m.order = t.anchor; return nil },
					ops: "@0s move " + mover + " to globex"},
				{run: 2 * time.Minute},
			},
			end: func(t *trial) error {
				m.snmp = t.moved
				moved := t.Nodes[mover].Adapters[1]
				for _, e := range t.Bus.Log() {
					switch {
					case e.Time < m.order || e.Adapter != moved:
					case e.Kind == event.NodeMoved && m.inferred == 0:
						m.inferred = e.Time
					case e.Kind == event.AdapterFailed && e.Suppressed:
						m.suppressed++
					case e.Kind == event.AdapterFailed:
						m.unsuppressed++
					}
				}
				m.findings = len(t.ActiveCentral().Verify())
				return nil
			},
		}
	},
	table: func(_ []string, ms [][]moveResult) (*Table, int) {
		t := &Table{
			ID:      "E7/move",
			Title:   "central-initiated domain move (SNMP VLAN rewrite)",
			Columns: []string{"trial", "snmp done(ms)", "move inferred(s)", "suppressed fails", "unsuppressed fails", "verify clean"},
		}
		for i, r := range ms[0] {
			since := func(at time.Duration, format func(time.Duration) string) string {
				if at == 0 {
					return "never"
				}
				return format(at - r.order)
			}
			clean := "yes"
			if r.findings != 0 {
				clean = fmt.Sprintf("no (%d findings)", r.findings)
			}
			t.addRow(fmt.Sprint(i+1), since(r.snmp, millis2), since(r.inferred, secs2), fmt.Sprint(r.suppressed),
				fmt.Sprint(r.unsuppressed), clean)
		}
		t.note("paper §3.1: neither AMG leader knows a move happened; Central correlates the leave/join pair,")
		t.note("and expected (Central-initiated) changes suppress external failure notifications")
		return t, 0
	},
}

// merged is one E8 trial's measure.
type merged struct {
	took    time.Duration // heal -> every data adapter in one committed view
	highest bool          // and that view led by the highest address
}

// merge measures how long two independently formed AMGs take to merge
// under the higher-IP leader once their partition heals. Every node's
// data adapter sits on VLAN 11; before the farm starts, the last b move
// to a private VLAN 900, and 15 s after the beacon phase they move back.
// Cells are {a, b}.
var merge = row[[2]int, merged]{
	cells: [][2]int{{2, 2}, {4, 4}, {8, 8}, {16, 4}, {16, 16}},
	quick: 2,
	seeds: []int64{61},
	plan: func(c [2]int, seed int64, m *merged) plan {
		var data []transport.IP
		vlan := func(v int) func(*trial) error {
			return func(t *trial) error {
				for _, ip := range data[c[0]:] {
					sw, port, _ := t.Fabric.Locate(ip)
					if err := sw.SetPortVLAN(port, v); err != nil {
						return err
					}
				}
				return nil
			}
		}
		cfg := withTb(3 * time.Second)
		return plan{
			spec: farm.Spec{Seed: seed, UniformNodes: c[0] + c[1], UniformAdapters: 2, NodesPerSwitch: c[0] + c[1], Core: cfg},
			stages: []stage{
				{at: func(t *trial) error {
					for i := 0; i < c[0]+c[1]; i++ {
						data = append(data, t.Nodes[fmt.Sprintf("node-%03d", i)].Adapters[1])
					}
					return vlan(900)(t)
				}},
				{run: cfg.BeaconPhase + 15*time.Second, at: vlan(11)},
				{until: func(t *trial) bool {
					ok, leader := oneGroup(t, data)
					m.highest = leader == slices.Max(data)
					return ok
				}, every: 250 * time.Millisecond, limit: 5 * time.Minute},
			},
			end: func(t *trial) error { m.took = t.anchor - cfg.BeaconPhase - 15*time.Second; return nil },
		}
	},
	table: func(cells [][2]int, ms [][]merged) (*Table, int) {
		t := &Table{
			ID:      "E8/merge",
			Title:   "partition heal: time to one merged AMG",
			Columns: []string{"sizes", "merge time(s)", "final leader is highest"},
		}
		for i, c := range cells {
			ok := "yes"
			if !ms[i][0].highest {
				ok = "NO"
			}
			t.addRow(fmt.Sprintf("%d+%d", c[0], c[1]), secs2(ms[i][0].took), ok)
		}
		t.note("merging AMGs are led by the AMG leader with the highest IP address (paper §2.1)")
		return t, 0
	},
}

// loadResult is one E9 trial's measure: report-plane messages during
// formation, then per minute in steady state and under churn.
type loadResult struct {
	formation     uint64
	steady, churn float64
}

// centralLoad measures report-plane traffic during formation, in steady
// state (the paper: zero) for a window, and for another window of churn:
// a node killed every 10 s and restarted 5 s later, node-000 first. The
// windows are a minute; cells are node counts, three adapters a node.
var centralLoad = row[int, loadResult]{
	cells: []int{10, 25, 50, 100},
	quick: 2,
	seeds: []int64{71},
	plan: func(nodes int, seed int64, m *loadResult) plan {
		const window = time.Minute
		var churn strings.Builder
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&churn, "@%ds kill node-%03d\n@%ds restart node-%03d\n", 10*i, i%nodes, 10*i+5, i%nodes)
		}
		churn.WriteString("settle 5s\n")
		reports := func(t *trial) uint64 { n, _ := planes(t); return n }
		var steady uint64
		return plan{
			spec: farm.Spec{Seed: seed + int64(nodes), UniformNodes: nodes, UniformAdapters: 3,
				StartSkew: 2 * time.Second, Core: withTb(5 * time.Second)},
			stages: []stage{
				{stable: 5 * time.Minute, at: func(t *trial) error { m.formation = reports(t); return nil }},
				{run: window, at: func(t *trial) error { steady = reports(t); return nil }, ops: churn.String()},
			},
			end: func(t *trial) error {
				m.steady = float64(steady-m.formation) / window.Minutes()
				m.churn = float64(reports(t)-steady) / window.Minutes()
				return nil
			},
		}
	},
	table: func(cells []int, ms [][]loadResult) (*Table, int) {
		t := &Table{
			ID:      "E9/centralload",
			Title:   "report-plane load at GulfStream Central (messages)",
			Columns: []string{"nodes", "adapters", "formation msgs", "steady msgs/min", "churn msgs/min"},
		}
		for i, n := range cells {
			r := ms[i][0]
			t.addRow(fmt.Sprint(n), fmt.Sprint(3*n), fmt.Sprint(r.formation),
				fmt.Sprintf("%.1f", r.steady), fmt.Sprintf("%.1f", r.churn))
		}
		t.note("paper §2.2: 'in the steady state, no network resources are used for group membership information';")
		t.note("leaders forward only membership changes, so churn traffic scales with churn, not farm size")
		return t, 0
	},
}

// findings is one E10 trial's measure: the adapter whose VLAN the
// database gets wrong, and Central's findings by kind ("" counts all).
type findings struct {
	wrong  transport.IP
	byKind map[string]int
}

// verify seeds one inconsistency of each kind between the database and
// the farm, and counts Central's discovered-vs-database findings by kind
// (paper §2.2's inversion: discover first, then check the database): the
// database expects the wrong VLAN for one adapter before the farm starts,
// and once it is stable a node the database lists goes down for 30 s.
// The cell names the two nodes.
var verify = row[[2]string, findings]{
	cells: [][2]string{{"acme-be-01", "globex-be-02"}},
	seeds: []int64{81},
	plan: func(c [2]string, seed int64, m *findings) plan {
		return plan{
			spec: twoDomains(seed),
			stages: []stage{
				{at: func(t *trial) error {
					m.wrong = t.Nodes[c[0]].Adapters[1]
					return t.DB.SetExpectedVLAN(m.wrong, 999)
				}},
				{stable: 3 * time.Minute, ops: "@0s kill " + c[1] + "\nsettle 30s"},
			},
			end: func(t *trial) error {
				m.byKind = map[string]int{}
				for _, f := range t.ActiveCentral().Verify() {
					m.byKind[f.Kind.String()]++
					m.byKind[""]++
				}
				return nil
			},
		}
	},
	table: func(cells [][2]string, ms [][]findings) (*Table, int) {
		t := &Table{
			ID:      "E10/verify",
			Title:   "discovered-vs-database verification findings",
			Columns: []string{"seeded inconsistency", "expected kind", "found"},
		}
		r, n := ms[0][0], ms[0][0].byKind
		t.addRow("db expects vlan 999 for "+r.wrong.String(), "wrong-segment", fmt.Sprint(n["wrong-segment"]))
		t.addRow("node "+cells[0][1]+" down (its adapters vanish)", "missing-adapter", fmt.Sprint(n["missing-adapter"]))
		t.addRow("(control) everything else", "no findings", fmt.Sprintf("%d other", n[""]-n["wrong-segment"]-n["missing-adapter"]))
		t.note("paper §2.2: inconsistencies are flagged and the affected adapters can be disabled until resolved")
		return t, 0
	},
}
