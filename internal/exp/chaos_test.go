package exp

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestChaosOrphanDropsVote replays seed 2's shrunk E15 schedule. A switch
// outage orphans adapters that had just acked a Prepare; before an orphan
// dropped its vote, the round's later Commit installed through it and the
// two-phase-commit checker saw an install without a matching prepare.
// Only the invariants are asserted: the schedule never restarts
// globex-be-00, so the farm cannot reconverge.
func TestChaosOrphanDropsVote(t *testing.T) {
	sched, err := check.Parse(`
@1m30s kill globex-be-00
@1m40s restart globex-fe-01
@1m42s switch-off sw-00 for 8s
@1m49s switch-off sw-00 for 8s
@1m53s switch-off sw-00 for 8s
settle 3m0s
`)
	if err != nil {
		t.Fatal(err)
	}
	out := chaosRun(ChaosOptions{}, 2, &sched)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.violations) > 0 || out.dropped > 0 {
		for _, v := range out.violations {
			t.Error(v.Format())
		}
		t.Fatalf("%d violations (+%d dropped)", len(out.violations), out.dropped)
	}
}

// TestTxnContextTellsTheVotesStory: the artifact text for a 2PC violation
// lists the victim's records for the txn, its last lineage end before the
// trigger, and the leader's records for the round, and nothing later.
func TestTxnContextTellsTheVotesStory(t *testing.T) {
	l, m, other := transport.MakeIP(10, 0, 0, 9), transport.MakeIP(10, 0, 0, 5), transport.MakeIP(10, 0, 0, 6)
	recs := []trace.Record{
		{Seq: 1, Kind: trace.KStarted, Self: m, Token: 1},
		{Seq: 2, Kind: trace.KPrepareSent, Self: l, Group: l, Token: 7},
		{Seq: 3, Kind: trace.KPrepareRecv, Self: m, Peer: l, Group: l, Token: 7},
		{Seq: 4, Kind: trace.KPrepareRecv, Self: other, Peer: l, Group: l, Token: 7},
		{Seq: 5, Kind: trace.KOrphaned, Self: m},
		{Seq: 6, Kind: trace.KCommitSent, Self: l, Group: l, Token: 7},
		{Seq: 7, Kind: trace.KCommitRecv, Self: m, Peer: l, Group: l, Token: 7},
		{Seq: 8, Kind: trace.KStarted, Self: m, Token: 2},
	}
	v := check.Violation{Rec: recs[6], Txn: recs[6].TxnID()}
	got := txnContext(recs, v)
	rest := got
	for _, want := range []string{"records for txn", "2pc-prepare-recv", "2pc-commit-recv",
		"last lineage end", "orphaned", "leader 10.0.0.9", "2pc-prepare-sent", "2pc-commit-sent"} {
		i := strings.Index(rest, want)
		if i < 0 {
			t.Fatalf("%q missing or out of order in:%s", want, got)
		}
		rest = rest[i+len(want):]
	}
	if strings.Contains(got, "started") || strings.Contains(got, other.String()) {
		t.Fatalf("a later reset or another adapter's vote is listed:%s", got)
	}
	if txnContext(recs, check.Violation{Rec: recs[4]}) != "" {
		t.Fatal("a violation without a txn got a txn context")
	}
}

// TestChaosSeedsReplayExactly runs each partition+failover E15 seed twice
// in one process. A seed must give one outcome: the same events fired, the
// same discovered topology and the same violations, in the same order. A
// walk over a map whose order reaches the protocol, the trace or the
// checkers shows up here as two outcomes for one seed.
func TestChaosSeedsReplayExactly(t *testing.T) {
	type outcome struct {
		fired, topology uint64
		violations      []string
	}
	run := func(seed int64) outcome {
		f, err := farm.Build(chaosSpec(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		engine := check.NewEngine(f)
		engine.Attach(f.Trace)
		f.Start()
		if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
			t.Fatalf("seed %d: initial stabilization failed", seed)
		}
		sched := check.Generate(seed, f.CheckTopology(), check.GenOpts{Rounds: 25, Partition: true, Failover: true})
		sched.Run(f)
		out := outcome{fired: f.Fired(), topology: TopologyHash(f)}
		for _, v := range engine.Violations() {
			out.violations = append(out.violations, v.Format())
		}
		return out
	}
	for seed := int64(2000); seed < 2004; seed++ {
		first, second := run(seed), run(seed)
		if first.fired != second.fired || first.topology != second.topology ||
			!slices.Equal(first.violations, second.violations) {
			t.Errorf("seed %d gave two outcomes:\n  fired %d, topology %016x, violations %q\n  fired %d, topology %016x, violations %q",
				seed, first.fired, first.topology, first.violations, second.fired, second.topology, second.violations)
		}
	}
}

// TestOfflineVerdictMatchesLive judges E15's red golden seed twice: live,
// as a chaos run does, and offline, from the run's trace dump decoded back
// into a trace.Dump and fed to an engine with no live farm — the way the
// conformance harness judges a real daemon's scraped trace. The model the
// invariants are judged over is folded from the records alone, so both
// must report the same violations.
func TestOfflineVerdictMatchesLive(t *testing.T) {
	const seed = 26
	spec := chaosSpec(seed, false)
	spec.TraceCapacity = 1 << 15 // the run traces about 11k records
	f, err := farm.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	engine := check.NewEngine(f)
	engine.Attach(f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		t.Fatal("initial stabilization failed")
	}
	// The rest of chaosRun's setup, so the seed plays out as in E15.
	f.AttachServe(serve.Config{Seed: seed, SessionsPerSec: 50}, nil).Start()
	check.Generate(seed, f.CheckTopology(), check.GenOpts{Rounds: 25}).Run(f)

	var dump bytes.Buffer
	if err := f.Trace.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	var d trace.Dump
	if err := json.Unmarshal(dump.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Dropped != 0 {
		t.Fatalf("the ring dropped %d of %d records; the dump must hold the whole run", d.Dropped, d.Total)
	}
	offline := check.NewEngine(nil)
	for _, r := range d.Records {
		offline.Observe(r)
	}

	lines := func(vs []check.Violation) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Checker+": "+v.Msg)
		}
		return out
	}
	live, off := lines(engine.Violations()), lines(offline.Violations())
	if len(live) == 0 || !strings.HasPrefix(live[0], "eviction-evidence: ") {
		t.Fatalf("seed %d no longer reproduces E15's eviction-evidence violation: %q", seed, live)
	}
	if !slices.Equal(live, off) {
		t.Errorf("offline verdict differs from the live one:\n live    %q\n offline %q", live, off)
	}
}
