package farm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/event"
	"repro/internal/trace"
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

// TestModelMatchesLiveViews holds the invariant engine's membership
// model, folded from the trace alone, to the live farm: at every
// KViewCommit the members the model holds for the installing adapter
// must be the ones its daemon just installed. Where the model cannot
// tell, it says so, and in simulation that must never happen. One cold
// start and four partition+failover chaos seeds between them install
// views through formation, leader takeover, orphan singletons and direct
// installs.
func TestModelMatchesLiveViews(t *testing.T) {
	seen := map[string]int{}
	run := func(t *testing.T, spec Spec, chaos bool) {
		f, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		engine := check.NewEngine(f)
		engine.Attach(f.Trace)
		var unknown []string
		commits := 0
		f.Trace.AddSink(func(r trace.Record) {
			switch {
			case r.Kind == trace.KFormed, r.Kind == trace.KLeaderTakeover, r.Kind == trace.KOrphaned:
				seen[r.Kind.String()]++
			case r.Kind == trace.KCommitRecv && r.Detail == "direct":
				seen["direct install"]++
			case r.Kind == trace.KViewCommit:
				commits++
				got, ok := engine.Members(r.Self)
				if !ok {
					unknown = append(unknown, r.String())
					return
				}
				if live, _ := f.ViewOf(r.Self); !slices.Equal(got, live.IPs()) {
					t.Errorf("%v: model holds %v, daemon installed %v", r, got, live.IPs())
				}
			}
		})
		f.Start()
		if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
			t.Fatal("initial stabilization failed")
		}
		if chaos {
			check.Generate(spec.Seed, f.CheckTopology(), check.GenOpts{Rounds: 25, Partition: true, Failover: true}).Run(f)
		}
		if len(unknown) > 0 {
			t.Errorf("the model cannot tell the members at %d of %d view commits:\n%s",
				len(unknown), commits, strings.Join(unknown, "\n"))
		}
		if commits == 0 {
			t.Error("no view commits traced")
		}
	}
	t.Run("cold-start", func(t *testing.T) {
		spec := fastSpec(1)
		spec.Domains = []DomainSpec{{Name: "acme", FrontEnds: 3, BackEnds: 5}}
		spec.Trace = true
		run(t, spec, false)
	})
	for seed := int64(2000); seed < 2004; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { run(t, chaosSpec(seed), true) })
	}
	for _, path := range []string{"formed", "leader-takeover", "orphaned", "direct install"} {
		if seen[path] == 0 {
			t.Errorf("no %s among the runs: that install path went unchecked", path)
		}
	}
}
