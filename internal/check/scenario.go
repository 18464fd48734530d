package check

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// OpKind enumerates the fault-injection operations a schedule composes.
type OpKind uint8

// The schedule operations.
const (
	// OpKillNode powers a node off.
	OpKillNode OpKind = iota + 1
	// OpRestartNode powers a node back on (fresh incarnation).
	OpRestartNode
	// OpFailAdapter breaks one adapter in the given mode, healing it
	// after For.
	OpFailAdapter
	// OpPartition cuts a broadcast segment (100% loss) for For.
	OpPartition
	// OpDropProfile degrades a segment to the given loss rate for For.
	OpDropProfile
	// OpKillSwitch powers a switch off, restoring it after For.
	OpKillSwitch
	// OpMoveDomain asks Central to move a node to another domain.
	OpMoveDomain
	// OpFailover kills whichever node hosts the active Central, and
	// restarts it after For when For is set.
	OpFailover
	// OpSurprise rewires a node's ports to another domain on the
	// switches, behind Central's back (paper §3.1): the configuration
	// database keeps the old domain.
	OpSurprise
)

var opNames = map[OpKind]string{
	OpKillNode:    "kill",
	OpRestartNode: "restart",
	OpFailAdapter: "fail",
	OpPartition:   "partition",
	OpDropProfile: "drop",
	OpKillSwitch:  "switch-off",
	OpMoveDomain:  "move",
	OpFailover:    "failover",
	OpSurprise:    "surprise",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one scheduled fault injection.
type Op struct {
	// At is the injection time, relative to the schedule's start.
	At time.Duration
	// Kind selects the operation.
	Kind OpKind
	// Node names the target node (kill, restart, move).
	Node string
	// Adapter is the target adapter (fail).
	Adapter transport.IP
	// Mode is the adapter failure mode (fail).
	Mode netsim.FailureMode
	// Target names the segment, switch, or destination domain.
	Target string
	// Loss is the degraded loss rate (drop).
	Loss float64
	// For is how long the fault holds before auto-reversal; zero means
	// the operation is not reversed (kill without a paired restart).
	For time.Duration
}

// Schedule is a replayable chaos scenario: a seed (for provenance), the
// ordered fault injections, and a settle period after the last fault
// during which the system must reconverge.
type Schedule struct {
	Seed   int64
	Ops    []Op
	Settle time.Duration
}

// DefaultSettle is used when a schedule does not name a settle period.
const DefaultSettle = 3 * time.Minute

// Target is the system under test, as the scenario engine sees it.
// *farm.Farm satisfies it structurally (check must not import farm:
// farm's tests import check), and so does the real-daemon harness handle,
// *conformance.H, on the wall clock.
type Target interface {
	Now() time.Duration
	After(d time.Duration, fn func())
	RunFor(d time.Duration)
	KillNode(name string) error
	RestartNode(name string) error
	FailAdapter(ip transport.IP, mode netsim.FailureMode) error
	KillSwitch(name string) error
	RestoreSwitch(name string) error
	MoveNodeToDomain(node, toDomain string, done func(error)) error
	SurpriseMoveNode(node, toDomain string) error
	SetSegmentLoss(segment string, loss float64)
	ActiveCentralNode() string
}

// Run injects every op at its scheduled time (fault injectors may
// reject an op that no longer applies — a shrunk schedule can ask to
// restart a live node — and that is fine: the schedule is a stimulus,
// not a transaction), then drives the target through the full horizon
// plus the settle period.
func (s Schedule) Run(tg Target) {
	var horizon time.Duration
	for _, op := range s.Ops {
		op := op
		tg.After(op.At, func() { _ = Apply(tg, op) })
		end := op.At + op.For
		if end > horizon {
			horizon = end
		}
	}
	settle := s.Settle
	if settle == 0 {
		settle = DefaultSettle
	}
	tg.RunFor(horizon + settle)
}

// Apply injects op into tg now, ignoring op.At, and schedules the
// reversal when op.For says the fault is held. The error is the fault
// injector's own: the target does not exist, or is in no state to take
// the fault. An interactive caller reports it; Run does not.
func Apply(tg Target, op Op) error {
	switch op.Kind {
	case OpKillNode:
		return tg.KillNode(op.Node)
	case OpRestartNode:
		return tg.RestartNode(op.Node)
	case OpFailAdapter:
		if err := tg.FailAdapter(op.Adapter, op.Mode); err != nil {
			return err
		}
		if op.For > 0 {
			tg.After(op.For, func() { _ = tg.FailAdapter(op.Adapter, netsim.Healthy) })
		}
	case OpPartition:
		tg.SetSegmentLoss(op.Target, 1)
		if op.For > 0 {
			tg.After(op.For, func() { tg.SetSegmentLoss(op.Target, -1) })
		}
	case OpDropProfile:
		tg.SetSegmentLoss(op.Target, op.Loss)
		if op.For > 0 {
			tg.After(op.For, func() { tg.SetSegmentLoss(op.Target, -1) })
		}
	case OpKillSwitch:
		if err := tg.KillSwitch(op.Target); err != nil {
			return err
		}
		if op.For > 0 {
			tg.After(op.For, func() { _ = tg.RestoreSwitch(op.Target) })
		}
	case OpMoveDomain:
		return tg.MoveNodeToDomain(op.Node, op.Target, nil)
	case OpSurprise:
		return tg.SurpriseMoveNode(op.Node, op.Target)
	case OpFailover:
		node := tg.ActiveCentralNode()
		if node == "" {
			return fmt.Errorf("check: no active central to fail over")
		}
		if err := tg.KillNode(node); err != nil {
			return err
		}
		if op.For > 0 {
			tg.After(op.For, func() { _ = tg.RestartNode(node) })
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Topology + generation

// NodeTopo describes one node of the system under test, enough for the
// generator to aim faults without importing the farm package.
type NodeTopo struct {
	Name     string
	Role     string // "admin", "frontend", "backend", "uniform", "zone"
	Domain   string
	Adapters []transport.IP
	Switch   string
}

// Topology is the static shape of the system under test, in a
// deterministic order.
type Topology struct {
	Nodes    []NodeTopo
	Switches []string
	Segments []string
	Domains  []string
}

// GenOpts tunes schedule generation.
type GenOpts struct {
	// Rounds is how many fault injections to draw (25 when zero).
	Rounds int
	// Partition enables segment partition and drop-profile operations.
	Partition bool
	// Failover enables active-Central failover operations.
	Failover bool
}

// Generate draws a random schedule from the seed — the same seed and
// topology always produce the identical schedule, which is what makes a
// sweep replayable. The shape mirrors the original inline chaos loop:
// 2–7 s between injections, adapters healed after 10 s, switches
// restored after 8 s, admin nodes never targeted directly, and every
// node still down at the end restarted so the system can converge.
func Generate(seed int64, topo Topology, o GenOpts) Schedule {
	rng := rand.New(rand.NewSource(seed))
	rounds := o.Rounds
	if rounds <= 0 {
		rounds = 25
	}
	var targets []NodeTopo
	for _, n := range topo.Nodes {
		if n.Role != "admin" {
			targets = append(targets, n)
		}
	}
	cases := 5
	if o.Partition {
		cases += 2
	}
	if o.Failover {
		cases++
	}
	modes := []netsim.FailureMode{netsim.FailStop, netsim.FailRecv, netsim.FailSend}

	down := map[string]bool{}
	var ops []Op
	var t time.Duration
	for i := 0; i < rounds && len(targets) > 0; i++ {
		t += time.Duration(2+rng.Intn(6)) * time.Second
		n := targets[rng.Intn(len(targets))]
		c := rng.Intn(cases)
		if c >= 7 || (c >= 5 && !o.Partition) {
			c = 7 // failover (c can only exceed the base cases when enabled)
		}
		switch c {
		case 0:
			if !down[n.Name] {
				down[n.Name] = true
				ops = append(ops, Op{At: t, Kind: OpKillNode, Node: n.Name})
			}
		case 1:
			if down[n.Name] {
				down[n.Name] = false
				ops = append(ops, Op{At: t, Kind: OpRestartNode, Node: n.Name})
			}
		case 2:
			if !down[n.Name] && len(n.Adapters) > 0 {
				ip := n.Adapters[rng.Intn(len(n.Adapters))]
				ops = append(ops, Op{At: t, Kind: OpFailAdapter, Adapter: ip,
					Mode: modes[rng.Intn(len(modes))], For: 10 * time.Second})
			}
		case 3:
			if !down[n.Name] && (n.Role == "frontend" || n.Role == "backend") {
				if to := otherDomain(rng, topo.Domains, n.Domain); to != "" {
					ops = append(ops, Op{At: t, Kind: OpMoveDomain, Node: n.Name, Target: to})
				}
			}
		case 4:
			if len(topo.Switches) > 0 {
				sw := topo.Switches[rng.Intn(len(topo.Switches))]
				ops = append(ops, Op{At: t, Kind: OpKillSwitch, Target: sw, For: 8 * time.Second})
			}
		case 5:
			if len(topo.Segments) > 0 {
				seg := topo.Segments[rng.Intn(len(topo.Segments))]
				ops = append(ops, Op{At: t, Kind: OpPartition, Target: seg, For: 8 * time.Second})
			}
		case 6:
			if len(topo.Segments) > 0 {
				seg := topo.Segments[rng.Intn(len(topo.Segments))]
				loss := 0.2 + 0.4*rng.Float64()
				ops = append(ops, Op{At: t, Kind: OpDropProfile, Target: seg,
					Loss: loss, For: 20 * time.Second})
			}
		case 7:
			ops = append(ops, Op{At: t, Kind: OpFailover, For: 30 * time.Second})
		}
	}
	// Trailing restarts, in topology (deterministic) order.
	t += 2 * time.Second
	for _, n := range targets {
		if down[n.Name] {
			ops = append(ops, Op{At: t, Kind: OpRestartNode, Node: n.Name})
		}
	}
	return Schedule{Seed: seed, Ops: ops, Settle: DefaultSettle}
}

func otherDomain(rng *rand.Rand, domains []string, cur string) string {
	var others []string
	for _, d := range domains {
		if d != cur {
			others = append(others, d)
		}
	}
	if len(others) == 0 {
		return ""
	}
	return others[rng.Intn(len(others))]
}

// Disturbed returns the set of node names a schedule may plausibly have
// affected, over-marking where the blast radius is indirect (a segment
// partition disturbs every node on the segment's switches; a failover
// disturbs every admin node). Nodes NOT in the set must come through
// the run without an unsuppressed failure verdict.
func (s Schedule) Disturbed(topo Topology) map[string]bool {
	out := map[string]bool{}
	markSwitch := func(sw string) {
		for _, n := range topo.Nodes {
			if n.Switch == sw {
				out[n.Name] = true
			}
		}
	}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpKillNode, OpRestartNode, OpMoveDomain, OpSurprise:
			out[op.Node] = true
		case OpFailAdapter:
			for _, n := range topo.Nodes {
				for _, ip := range n.Adapters {
					if ip == op.Adapter {
						out[n.Name] = true
					}
				}
			}
		case OpKillSwitch:
			markSwitch(op.Target)
		case OpPartition, OpDropProfile:
			// Segment membership is dynamic (domain moves rewire VLANs);
			// over-mark every node rather than guess.
			for _, n := range topo.Nodes {
				out[n.Name] = true
			}
		case OpFailover:
			for _, n := range topo.Nodes {
				if n.Role == "admin" {
					out[n.Name] = true
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Text DSL

// String renders the schedule in the text DSL, one op per line:
//
//	seed 101
//	@2s kill acme-be-003
//	@6s fail 10.3.0.5 fail-recv for 10s
//	@9s partition vlan-101 for 8s
//	@11s drop vlan-102 0.35 for 20s
//	@12s switch-off sw-01 for 8s
//	@15s move acme-fe-001 to globex
//	@18s surprise acme-be-002 to globex
//	@20s failover for 30s
//	@40s failover
//	settle 3m
//
// Parse reads the same format back; String∘Parse is the identity.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "@%v %s", op.At, op.Kind)
		switch op.Kind {
		case OpKillNode, OpRestartNode:
			fmt.Fprintf(&b, " %s", op.Node)
		case OpFailAdapter:
			fmt.Fprintf(&b, " %v %v", op.Adapter, op.Mode)
		case OpPartition, OpKillSwitch:
			fmt.Fprintf(&b, " %s", op.Target)
		case OpDropProfile:
			fmt.Fprintf(&b, " %s %s", op.Target, strconv.FormatFloat(op.Loss, 'g', -1, 64))
		case OpMoveDomain, OpSurprise:
			fmt.Fprintf(&b, " %s to %s", op.Node, op.Target)
		}
		if op.For > 0 {
			fmt.Fprintf(&b, " for %v", op.For)
		}
		b.WriteByte('\n')
	}
	settle := s.Settle
	if settle == 0 {
		settle = DefaultSettle
	}
	fmt.Fprintf(&b, "settle %v\n", settle)
	return b.String()
}

var opByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opNames))
	for k, n := range opNames { // order-free: op names are distinct
		m[n] = k
	}
	return m
}()

var modeByName = map[string]netsim.FailureMode{
	netsim.Healthy.String():  netsim.Healthy,
	netsim.FailStop.String(): netsim.FailStop,
	netsim.FailRecv.String(): netsim.FailRecv,
	netsim.FailSend.String(): netsim.FailSend,
}

// Parse reads the text DSL produced by String. Blank lines and lines
// starting with '#' are ignored; every line but a seed or settle line is
// an op line for ParseOp, so a line without an @ time is an op at 0s.
func Parse(text string) (Schedule, error) {
	var s Schedule
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case f[0] == "seed":
			if len(f) != 2 {
				return s, fmt.Errorf("line %d: want 'seed N'", ln+1)
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return s, fmt.Errorf("line %d: bad seed: %v", ln+1, err)
			}
			s.Seed = v
		case f[0] == "settle":
			if len(f) != 2 {
				return s, fmt.Errorf("line %d: want 'settle <duration>'", ln+1)
			}
			d, err := time.ParseDuration(f[1])
			if err != nil || d < 0 {
				return s, fmt.Errorf("line %d: bad settle duration %q", ln+1, f[1])
			}
			s.Settle = d
		default:
			op, err := ParseOp(line)
			if err != nil {
				return s, fmt.Errorf("line %d: %v", ln+1, err)
			}
			s.Ops = append(s.Ops, op)
		}
	}
	return s, nil
}

// ParseOp reads one op line of the DSL, "[@<time>] <operation> <args>
// [for <hold>]". A line without the time prefix has At zero: an op for
// Apply, or one at 0s in a schedule.
func ParseOp(line string) (Op, error) {
	var op Op
	f := strings.Fields(line)
	if len(f) > 0 && strings.HasPrefix(f[0], "@") {
		at, err := time.ParseDuration(f[0][1:])
		if err != nil || at < 0 {
			return op, fmt.Errorf("bad time %q", f[0])
		}
		op.At = at
		f = f[1:]
	}
	if len(f) == 0 {
		return op, fmt.Errorf("missing operation")
	}
	kind, ok := opByName[f[0]]
	if !ok {
		return op, fmt.Errorf("unknown operation %q", f[0])
	}
	op.Kind = kind
	args := f[1:]
	// Trailing "for <duration>".
	if len(args) >= 2 && args[len(args)-2] == "for" {
		d, err := time.ParseDuration(args[len(args)-1])
		if err != nil || d <= 0 {
			return op, fmt.Errorf("bad hold duration %q", args[len(args)-1])
		}
		op.For = d
		args = args[:len(args)-2]
	}
	switch kind {
	case OpKillNode, OpRestartNode:
		if len(args) != 1 {
			return op, fmt.Errorf("%s wants a node name", kind)
		}
		op.Node = args[0]
	case OpFailAdapter:
		if len(args) != 2 {
			return op, fmt.Errorf("fail wants '<ip> <mode>'")
		}
		ip, ok := transport.ParseIP(args[0])
		if !ok {
			return op, fmt.Errorf("bad adapter IP %q", args[0])
		}
		mode, ok := modeByName[args[1]]
		if !ok {
			return op, fmt.Errorf("unknown failure mode %q", args[1])
		}
		op.Adapter, op.Mode = ip, mode
	case OpPartition, OpKillSwitch:
		if len(args) != 1 {
			return op, fmt.Errorf("%s wants a target name", kind)
		}
		op.Target = args[0]
	case OpDropProfile:
		if len(args) != 2 {
			return op, fmt.Errorf("drop wants '<segment> <loss>'")
		}
		loss, err := strconv.ParseFloat(args[1], 64)
		if err != nil || loss < 0 || loss > 1 {
			return op, fmt.Errorf("bad loss rate %q", args[1])
		}
		op.Target, op.Loss = args[0], loss
	case OpMoveDomain, OpSurprise:
		if len(args) != 3 || args[1] != "to" {
			return op, fmt.Errorf("%s wants '<node> to <domain>'", kind)
		}
		op.Node, op.Target = args[0], args[2]
	case OpFailover:
		if len(args) != 0 {
			return op, fmt.Errorf("failover takes no arguments")
		}
	}
	return op, nil
}

// sortOps orders ops by time, keeping the relative order of equal
// times stable (needed by the shrinker's chunking).
func sortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}
