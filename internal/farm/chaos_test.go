package farm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/event"
)

// Chaos test: a farm is subjected to a long seed-derived schedule of
// node kills, restarts, adapter failures of every mode, switch outages,
// and Central-initiated domain moves — with the protocol-invariant
// engine watching every trace record as the run unfolds — then left
// alone. Afterwards the whole system must converge (one view per
// segment, Central matching the daemons, verification clean), no
// invariant may have fired mid-run, and never-disturbed nodes must have
// no unsuppressed failure events.
func TestChaosConvergence(t *testing.T) {
	for _, seed := range []int64{101, 202, 303, 404, 505} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed)
		})
	}
}

// chaosSpec is the farm shape every chaos run uses: two domains over
// seven-node switches, three management nodes, aggressive protocol
// timers, flight recorder and journal on.
func chaosSpec(seed int64) Spec {
	spec := fastSpec(seed)
	spec.AdminNodes = 3
	spec.Domains = []DomainSpec{
		{Name: "acme", FrontEnds: 2, BackEnds: 3},
		{Name: "globex", FrontEnds: 2, BackEnds: 3},
	}
	spec.NodesPerSwitch = 7
	spec.Core.EscalationPatience = 3 * time.Second
	spec.Trace = true
	spec.Journal = true
	return spec
}

func chaosRun(t *testing.T, seed int64) {
	f, err := Build(chaosSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	engine := check.NewEngine(f)
	engine.Attach(f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		t.Fatal("initial stabilization failed")
	}

	topo := f.CheckTopology()
	sched := check.Generate(seed, topo, check.GenOpts{})
	sched.Run(f)

	for _, msg := range f.ConvergenceFailures() {
		t.Error(msg)
	}
	for _, v := range engine.Violations() {
		t.Errorf("invariant violated:\n%s", v.Format())
	}
	// Never-disturbed nodes must have no unsuppressed failure events.
	disturbed := sched.Disturbed(topo)
	for _, e := range f.Bus.Filter(event.NodeFailed) {
		if !disturbed[e.Node] && !e.Suppressed {
			t.Errorf("undisturbed node %s was declared failed: %v", e.Node, e)
		}
	}
	if t.Failed() {
		t.Logf("reproduce with schedule:\n%s", sched)
	}
}

// TestSeededBugCaught plants the paper's §3 flaw — a leader acting on
// the first suspicion without the verification probe — and demands that
// (1) the invariant engine catches the unverified eviction while the
// chaos schedule is still running, and (2) the shrinker reduces the
// schedule to a handful of ops that still reproduce it.
func TestSeededBugCaught(t *testing.T) {
	const seed = 7
	buggy := func(s check.Schedule) (*check.Engine, time.Duration) {
		spec := chaosSpec(seed)
		spec.Core.UnsafeSkipVerify = true
		f, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		engine := check.NewEngine(f)
		engine.Attach(f.Trace)
		f.Start()
		if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
			t.Fatal("initial stabilization failed")
		}
		start := f.Now()
		s.Run(f)
		return engine, f.Now() - start
	}

	topo := func() check.Topology {
		f, err := Build(chaosSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return f.CheckTopology()
	}()
	sched := check.Generate(seed, topo, check.GenOpts{Rounds: 12})
	sched.Settle = 45 * time.Second

	engine, ran := buggy(sched)
	vs := engine.Violations()
	if len(vs) == 0 {
		t.Fatal("seeded skip-verify bug produced no invariant violation")
	}
	if vs[0].T > ran+2*time.Minute {
		t.Errorf("violation not caught during the run (at %v)", vs[0].T)
	}
	found := false
	for _, v := range vs {
		if v.Checker == "eviction-evidence" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("expected an eviction-evidence violation, got: %v", vs[0])
	}

	min, runs := check.Shrink(sched, func(c check.Schedule) bool {
		e, _ := buggy(c)
		return !e.Ok()
	}, 24)
	if len(min.Ops) > 5 {
		t.Errorf("shrinker left %d ops (want <= 5) after %d runs:\n%s",
			len(min.Ops), runs, min)
	}
	t.Logf("shrunk %d ops -> %d in %d runs; reproduction:\n%s",
		len(sched.Ops), len(min.Ops), runs, min)
}
