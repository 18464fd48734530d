package check

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

func testTopology() Topology {
	return Topology{
		Nodes: []NodeTopo{
			{Name: "mgmt-00", Role: "admin", Adapters: []transport.IP{ip("10.0.0.1")}, Switch: "sw-00"},
			{Name: "acme-fe-01", Role: "frontend", Domain: "acme",
				Adapters: []transport.IP{ip("10.0.0.11"), ip("10.0.0.12")}, Switch: "sw-00"},
			{Name: "acme-be-01", Role: "backend", Domain: "acme",
				Adapters: []transport.IP{ip("10.0.0.21")}, Switch: "sw-01"},
			{Name: "globex-be-01", Role: "backend", Domain: "globex",
				Adapters: []transport.IP{ip("10.0.0.31")}, Switch: "sw-01"},
		},
		Switches: []string{"sw-00", "sw-01"},
		Segments: []string{"vlan-101", "vlan-102"},
		Domains:  []string{"acme", "globex"},
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	topo := testTopology()
	a := Generate(42, topo, GenOpts{Partition: true, Failover: true})
	b := Generate(42, topo, GenOpts{Partition: true, Failover: true})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(43, topo, GenOpts{Partition: true, Failover: true})
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateNeverTargetsAdminNodes(t *testing.T) {
	topo := testTopology()
	for seed := int64(1); seed <= 20; seed++ {
		s := Generate(seed, topo, GenOpts{Rounds: 40})
		for _, op := range s.Ops {
			if op.Node == "mgmt-00" {
				t.Fatalf("seed %d: op targets admin node directly: %+v", seed, op)
			}
			if op.Adapter == ip("10.0.0.1") {
				t.Fatalf("seed %d: op targets admin adapter: %+v", seed, op)
			}
		}
	}
}

func TestScheduleDSLRoundTrip(t *testing.T) {
	orig := Schedule{
		Seed:   101,
		Settle: 90 * time.Second,
		Ops: []Op{
			{At: 2 * time.Second, Kind: OpKillNode, Node: "acme-be-01"},
			{At: 5 * time.Second, Kind: OpFailAdapter, Adapter: ip("10.0.0.11"),
				Mode: netsim.FailRecv, For: 10 * time.Second},
			{At: 9 * time.Second, Kind: OpPartition, Target: "vlan-101", For: 8 * time.Second},
			{At: 11 * time.Second, Kind: OpDropProfile, Target: "vlan-102",
				Loss: 0.35, For: 20 * time.Second},
			{At: 12 * time.Second, Kind: OpKillSwitch, Target: "sw-01", For: 8 * time.Second},
			{At: 15 * time.Second, Kind: OpMoveDomain, Node: "acme-fe-01", Target: "globex"},
			{At: 18 * time.Second, Kind: OpSurprise, Node: "acme-fe-01", Target: "acme"},
			{At: 20 * time.Second, Kind: OpFailover, For: 30 * time.Second},
			{At: 25 * time.Second, Kind: OpRestartNode, Node: "acme-be-01"},
			{At: 60 * time.Second, Kind: OpFailover},
		},
	}
	text := orig.String()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(String()) failed: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the schedule:\n got %+v\nwant %+v", back, orig)
	}
}

func TestGeneratedSchedulesRoundTrip(t *testing.T) {
	topo := testTopology()
	for seed := int64(1); seed <= 10; seed++ {
		s := Generate(seed, topo, GenOpts{Partition: true, Failover: true})
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, s)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("seed %d round trip changed the schedule", seed)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"frobnicate 3",
		"@notatime kill x",
		"@2s explode x",
		"@2s kill",
		"@2s fail 999.1.2.3 fail-recv",
		"@2s fail 10.0.0.1 fail-sideways",
		"@2s drop vlan-1 1.7",
		"@2s move node globex",
		"@2s failover extra-arg",
		"@2s surprise node",
		"@2s surprise node into globex",
		"seed twelve",
		"settle -3s",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage", bad)
		}
	}
}

// TestOneOpGrammar: a schedule line and a console line are one grammar.
// For every op kind, with and without the @ time, Parse and ParseOp read
// the same Op, and a bare line is an op at 0s.
func TestOneOpGrammar(t *testing.T) {
	lines := map[OpKind]string{
		OpKillNode:    "kill web-2",
		OpRestartNode: "restart web-2",
		OpFailAdapter: "fail 10.0.0.11 fail-recv for 10s",
		OpPartition:   "partition vlan-101 for 8s",
		OpDropProfile: "drop vlan-102 0.35",
		OpKillSwitch:  "switch-off sw-01 for 8s",
		OpMoveDomain:  "move acme-fe-01 to globex",
		OpSurprise:    "surprise acme-fe-01 to acme",
		OpFailover:    "failover for 30s",
	}
	if len(lines) != len(opNames) {
		t.Fatalf("the table covers %d of %d op kinds", len(lines), len(opNames))
	}
	for kind, line := range lines {
		for _, at := range []string{"", "@0s ", "@7s "} {
			op, err := ParseOp(at + line)
			if err != nil || op.Kind != kind {
				t.Fatalf("ParseOp(%q) = %+v, %v", at+line, op, err)
			}
			s, err := Parse(at + line)
			if err != nil || len(s.Ops) != 1 || !reflect.DeepEqual(s.Ops[0], op) {
				t.Fatalf("Parse(%q) = %+v, %v; ParseOp read %+v", at+line, s.Ops, err, op)
			}
			if want := map[string]time.Duration{"@7s ": 7 * time.Second}[at]; op.At != want {
				t.Fatalf("%q: At = %v, want %v", at+line, op.At, want)
			}
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	s, err := Parse("# a comment\n\nseed 7\n@2s kill n1\n\n# another\nsettle 1m\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Ops) != 1 || s.Settle != time.Minute {
		t.Fatalf("unexpected parse result: %+v", s)
	}
}

// scriptedTarget records applied ops so scheduling/reversal order can be
// asserted without a farm.
type scriptedTarget struct {
	now     time.Duration
	timers  []scriptedTimer
	applied []string
	central string
}

type scriptedTimer struct {
	at time.Duration
	fn func()
}

func (s *scriptedTarget) Now() time.Duration { return s.now }
func (s *scriptedTarget) After(d time.Duration, fn func()) {
	s.timers = append(s.timers, scriptedTimer{s.now + d, fn})
}
func (s *scriptedTarget) RunFor(d time.Duration) {
	end := s.now + d
	for {
		best := -1
		for i, tm := range s.timers {
			if tm.at <= end && (best < 0 || tm.at < s.timers[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		tm := s.timers[best]
		s.timers = append(s.timers[:best], s.timers[best+1:]...)
		s.now = tm.at
		tm.fn()
	}
	s.now = end
}
func (s *scriptedTarget) log(f string, a ...interface{}) {
	s.applied = append(s.applied, fmt.Sprintf("%v "+f, append([]interface{}{s.now}, a...)...))
}

func (s *scriptedTarget) KillNode(name string) error    { s.log("kill %s", name); return nil }
func (s *scriptedTarget) RestartNode(name string) error { s.log("restart %s", name); return nil }
func (s *scriptedTarget) FailAdapter(ip transport.IP, mode netsim.FailureMode) error {
	s.log("fail %v %v", ip, mode)
	return nil
}
func (s *scriptedTarget) KillSwitch(name string) error    { s.log("switch-off %s", name); return nil }
func (s *scriptedTarget) RestoreSwitch(name string) error { s.log("switch-on %s", name); return nil }
func (s *scriptedTarget) MoveNodeToDomain(node, to string, done func(error)) error {
	s.log("move %s to %s", node, to)
	return nil
}
func (s *scriptedTarget) SurpriseMoveNode(node, to string) error {
	s.log("surprise %s to %s", node, to)
	return nil
}
func (s *scriptedTarget) SetSegmentLoss(segment string, loss float64) {
	s.log("loss %s %g", segment, loss)
}
func (s *scriptedTarget) ActiveCentralNode() string { return s.central }

func TestRunAppliesAndReversesOps(t *testing.T) {
	tg := &scriptedTarget{central: "mgmt-00"}
	s := Schedule{
		Settle: 5 * time.Second,
		Ops: []Op{
			{At: 1 * time.Second, Kind: OpFailAdapter, Adapter: ip("10.0.0.11"),
				Mode: netsim.FailRecv, For: 3 * time.Second},
			{At: 2 * time.Second, Kind: OpPartition, Target: "vlan-101", For: 2 * time.Second},
			{At: 3 * time.Second, Kind: OpFailover, For: 4 * time.Second},
		},
	}
	s.Run(tg)
	want := []string{
		"1s fail 10.0.0.11 fail-recv",
		"2s loss vlan-101 1",
		"3s kill mgmt-00",
		"4s fail 10.0.0.11 healthy",
		"4s loss vlan-101 -1",
		"7s restart mgmt-00",
	}
	if !reflect.DeepEqual(tg.applied, want) {
		t.Fatalf("applied ops:\n got %v\nwant %v", tg.applied, want)
	}
	// Horizon (3s+4s) + settle (5s) = 12s.
	if tg.now != 12*time.Second {
		t.Fatalf("final time %v, want 12s", tg.now)
	}
}

// A bare failover is a plain kill of the Central host: Op.For of zero
// means the operation is not reversed, so no restart is scheduled.
func TestBareFailoverSchedulesNoRestart(t *testing.T) {
	tg := &scriptedTarget{central: "mgmt-00"}
	op, err := ParseOp("failover")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(tg, op); err != nil {
		t.Fatal(err)
	}
	if len(tg.timers) != 0 {
		t.Fatalf("bare failover scheduled %d reversals", len(tg.timers))
	}
	tg.RunFor(24 * time.Hour)
	if want := []string{"0s kill mgmt-00"}; !reflect.DeepEqual(tg.applied, want) {
		t.Fatalf("applied ops:\n got %v\nwant %v", tg.applied, want)
	}
}

func TestSurpriseGoesToTheTarget(t *testing.T) {
	tg := &scriptedTarget{}
	op, err := ParseOp("surprise web-1 to vlan-102")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(tg, op); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0s surprise web-1 to vlan-102"}; !reflect.DeepEqual(tg.applied, want) {
		t.Fatalf("applied ops:\n got %v\nwant %v", tg.applied, want)
	}
	if d := (Schedule{Ops: []Op{op}}).Disturbed(testTopology()); !d["web-1"] || len(d) != 1 {
		t.Fatalf("surprise disturbs %v, want only web-1", d)
	}
}
