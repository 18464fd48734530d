package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
)

// TestLoopbackSmoke boots a real five-daemon farm on the loopback
// fabric and runs the cold-start and configdb-mismatch suites end to
// end: real processes, real UDP, real SNMP, invariant-checked traces.
// All eight suites play in the simulator in TestSuitesInSimulation; on
// real daemons the other six run via cmd/gshive (the CI conformance job,
// and nightly on netns).
func TestLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process farm boot; skipped in -short")
	}
	bin, err := BuildGSD(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	suites, err := FindSuites([]string{"smoke", "configdb-mismatch"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(suites, Options{
		Bin:       bin,
		Artifacts: t.TempDir(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(suites) {
		t.Fatalf("want %d results, got %d", len(suites), len(results))
	}
	for _, r := range results {
		if r.Passed {
			continue
		}
		detail, _ := json.MarshalIndent(r.Verdict, "", "  ")
		t.Errorf("suite %s failed: %s\nverdict: %s", r.Suite, r.Err, detail)
	}
}

func TestFindSuites(t *testing.T) {
	all, err := FindSuites([]string{"all"})
	if err != nil || len(all) != 8 {
		t.Fatalf("all: %v (%d suites)", err, len(all))
	}
	if _, err := FindSuites([]string{"no-such-suite"}); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

// TestSuitesParse holds every suite step to the check DSL without
// starting a process: on both farm specs, the text a step builds from
// the spec parses, survives String∘Parse, and names only the spec's
// nodes, adapters and data segments; every step waits for a known state.
func TestSuitesParse(t *testing.T) {
	for _, fabric := range []struct {
		name string
		spec func() *FarmSpec
	}{{"loopback", DefaultFarm}, {"netns", NetnsFarm}} {
		for _, suite := range Suites() {
			spec := fabric.spec()
			if suite.Prepare != nil {
				suite.Prepare(spec)
			}
			for i, step := range suite.Steps {
				where := fmt.Sprintf("%s %s step %d", fabric.name, suite.Name, i+1)
				if step.Until == nil && step.Wait != settled && step.Wait != converged {
					t.Errorf("%s: waits for %q, which is neither a state nor a named condition", where, step.Wait)
				}
				if step.Ops == nil {
					continue
				}
				sched, err := check.Parse(step.Ops(spec))
				if err != nil {
					t.Errorf("%s: %v", where, err)
					continue
				}
				roundTrips(t, where, sched)
				for _, op := range sched.Ops {
					if bad := foreignName(spec, op); bad != "" {
						t.Errorf("%s: %s names %s", where, op.Kind, bad)
					}
				}
			}
		}
	}
	// The two ops only live steps play in the shipped suites.
	for _, line := range []string{"surprise web-1 to vlan-102", "failover"} {
		op, err := check.ParseOp(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		roundTrips(t, line, check.Schedule{Ops: []check.Op{op}})
	}
}

func roundTrips(t *testing.T, where string, sched check.Schedule) {
	t.Helper()
	back, err := check.Parse(sched.String())
	if sched.Settle == 0 {
		sched.Settle = check.DefaultSettle // String writes the default out
	}
	if err != nil || !reflect.DeepEqual(back, sched) {
		t.Errorf("%s: String∘Parse changed the schedule (%v):\n%s", where, err, sched)
	}
}

// foreignName returns what an op names outside the spec ("" if nothing).
func foreignName(spec *FarmSpec, op check.Op) string {
	if op.Node != "" {
		if _, ok := spec.Node(op.Node); !ok {
			return "node " + op.Node
		}
	}
	if op.Kind == check.OpFailAdapter {
		if _, ok := spec.Adapter(op.Adapter); !ok {
			return "adapter " + op.Adapter.String()
		}
	}
	if op.Target != "" {
		named := slices.ContainsFunc(spec.Domains, func(d farm.DomainLayout) bool { return d.Name == op.Target })
		if !named || op.Kind == check.OpKillSwitch {
			return "target " + op.Target
		}
	}
	return ""
}

// TestSuitesInSimulation plays every suite in the simulator world on both
// farm specs, twice each in one process: each run must pass, and the two
// runs of a suite must write the same verdict.json after the same number
// of fired events.
func TestSuitesInSimulation(t *testing.T) {
	start := time.Now()
	for _, fabric := range []struct {
		name string
		spec func() *FarmSpec
	}{{"loopback", DefaultFarm}, {"netns", NetnsFarm}} {
		for _, suite := range Suites() {
			var verdicts [2][]byte
			var fired [2]uint64
			for run := range verdicts {
				art := t.TempDir()
				var w *simWorld
				res := runSuite(suite, fabric.spec(), "sim", func(spec *FarmSpec) (world, error) {
					sw, err := newSim(spec)
					w, _ = sw.(*simWorld)
					return sw, err
				}, art, func(string, ...any) {})
				if !res.Passed {
					detail, _ := json.MarshalIndent(res.Verdict, "", "  ")
					t.Errorf("%s farm, suite %s, run %d: %s\nverdict: %s", fabric.name, suite.Name, run+1, res.Err, detail)
				}
				b, err := os.ReadFile(filepath.Join(art, "verdict.json"))
				if err != nil {
					t.Fatal(err)
				}
				verdicts[run], fired[run] = b, w.Fired()
			}
			if !bytes.Equal(verdicts[0], verdicts[1]) || fired[0] != fired[1] {
				t.Errorf("%s farm, suite %s: two runs differ: fired %d vs %d, verdicts\n%s\n%s",
					fabric.name, suite.Name, fired[0], fired[1], verdicts[0], verdicts[1])
			}
		}
	}
	t.Logf("32 simulated suite runs in %v", time.Since(start))
}
