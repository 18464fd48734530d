package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gulfstream "repro"
)

func testFarm(t *testing.T) *gulfstream.Farm {
	t.Helper()
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:         9,
		AdminNodes:   2,
		Domains:      []gulfstream.DomainSpec{{Name: "acme", FrontEnds: 1, BackEnds: 2}},
		StartSkew:    time.Second,
		RecordEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	return f
}

func runScript(t *testing.T, f *gulfstream.Farm, script string) string {
	t.Helper()
	var out strings.Builder
	repl(f, strings.NewReader(script), &out)
	return out.String()
}

func TestReplHappyPath(t *testing.T) {
	f := testFarm(t)
	out := runScript(t, f, strings.Join([]string{
		"help",
		"run 40",
		"status",
		"groups",
		"events 5",
		"verify",
		"metrics",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"run <s>",             // help
		"advanced to t=40s",   // run
		"central active",      // status
		"vlan-1",              // groups shows the admin segment
		"central-elected",     // events
		"verification: clean", // verify
		"heartbeat",           // metrics summary
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReplFaultCommands(t *testing.T) {
	f := testFarm(t)
	adapter := f.Nodes["acme-be-00"].Adapters[0].String()
	out := runScript(t, f, strings.Join([]string{
		"run 40",
		"kill acme-be-00",
		"run 30",
		"restart acme-be-00",
		"run 30",
		"fail " + adapter + " fail-recv",
		"run 10",
		"fail " + adapter + " healthy",
		"switch-off sw-00 for 5s",
		"run 10",
		"events 100",
		"quit",
	}, "\n"))
	for _, want := range []string{"node-failed", "node-recovered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Errorf("a fault command was rejected:\n%s", out)
	}
}

// TestReplFaultLines feeds the REPL one line at a time: every fault verb
// reaches the farm through the schedule language, so a line either
// injects silently or reports the parser's or the injector's error.
func TestReplFaultLines(t *testing.T) {
	f := testFarm(t)
	runScript(t, f, "run 40")
	adapter := f.Nodes["acme-be-00"].Adapters[0].String()
	for _, c := range []struct {
		line    string
		wantErr string // "" means the line must be accepted
	}{
		{"kill acme-be-00", ""},
		{"restart acme-be-00", ""},
		{"kill ghost", `unknown node "ghost"`},
		{"kill", "kill wants a node name"},
		{"switch-off sw-00 for 5s", ""},
		{"run 6", ""}, // the hold expires: the switch is back on
		{"switch-off sw-00", ""},
		{"switch-off sw-99", `unknown switch "sw-99"`},
		{"fail bogus fail-recv", `bad adapter IP "bogus"`},
		{"fail 1.2.3.4 fail-recv", "unknown adapter 1.2.3.4"},
		{"fail " + adapter + " fail-recv", ""},
		{"fail " + adapter + " healthy", ""},
		{"fail " + adapter + " fail-send for 3s", ""},
		{"fail " + adapter + " martian", `unknown failure mode "martian"`},
		{"fail " + adapter + " recv", `unknown failure mode "recv"`}, // the pre-DSL spelling
		{"move ghost to nowhere", `unknown domain "nowhere"`},
		{"move acme-be-00 acme", "move wants '<node> to <domain>'"},
		{"partition vlan-101 for 2s", ""},
		{"drop vlan-101 0.5 for 2s", ""},
		{"drop vlan-101 1.5", `bad loss rate "1.5"`},
		{"restoresw sw-00", `unknown operation "restoresw"`}, // a pre-DSL command
		{"no-such-action", `unknown operation "no-such-action"`},
		{"play", "wrong arguments"},
		{"play /no/such/schedule", "no such file"},
	} {
		out := runScript(t, f, c.line)
		switch {
		case c.wantErr == "" && (strings.Contains(out, "error:") || strings.Contains(out, "wrong arguments")):
			t.Errorf("%q rejected: %s", c.line, out)
		case c.wantErr != "" && !strings.Contains(out, c.wantErr):
			t.Errorf("%q: output %q, want it to contain %q", c.line, out, c.wantErr)
		}
	}
	if sw := f.Fabric.Switch("sw-00"); sw.Up() {
		t.Error("sw-00 is up after an unheld switch-off")
	}
}

func TestReplErrors(t *testing.T) {
	f := testFarm(t)
	out := runScript(t, f, strings.Join([]string{
		"kill ghost",
		"kill",
		"fail 1.2.3.4 martian",
		"fail not-an-ip fail-recv",
		"move ghost to nowhere",
		"blargh",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"error: farm: unknown node",
		"kill wants a node name",
		`unknown failure mode "martian"`,
		`bad adapter IP "not-an-ip"`,
		"error: farm: no active central", // nothing has run yet
		`unknown operation "blargh" (try help)`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func twoDomainFarm(t *testing.T, seed int64) *gulfstream.Farm {
	t.Helper()
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:       seed,
		AdminNodes: 2,
		Domains: []gulfstream.DomainSpec{
			{Name: "acme", FrontEnds: 2, BackEnds: 3},
			{Name: "globex", FrontEnds: 2, BackEnds: 3},
		},
		StartSkew:    2 * time.Second,
		RecordEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	return f
}

func TestReplMove(t *testing.T) {
	f := twoDomainFarm(t, 10)
	out := runScript(t, f, strings.Join([]string{
		"run 40",
		"move acme-be-01 to globex",
		"run 90",
		"events 100",
		"verify",
		"quit",
	}, "\n"))
	for _, want := range []string{"move-started", "node-moved", "verification: clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := f.Nodes["acme-be-01"].Domain; got != "globex" {
		t.Errorf("acme-be-01 is in domain %q after the move, want globex", got)
	}
}

// TestReplPlay plays README.md's example timeline on gsctl's default farm
// (the scripted run cmd/gsfarm used to exist for) and expects the farm
// to come out of it verified.
func TestReplPlay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.txt")
	if err := os.WriteFile(path, []byte(strings.Join([]string{
		"# boot and stabilize, lose a back-end, get it back, move another",
		"@60s kill acme-be-01",
		"@100s restart acme-be-01",
		"@140s move globex-be-02 to acme",
		"settle 80s",
	}, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	f := twoDomainFarm(t, 1)
	out := runScript(t, f, "play "+path+"\nevents 200\nverify\nquit\n")
	for _, want := range []string{
		"played 3 ops; advanced to t=3m40s",
		"node-failed", "node-recovered", "node-moved",
		"verification: clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := f.Nodes["globex-be-02"].Domain; got != "acme" {
		t.Errorf("globex-be-02 is in domain %q after the play, want acme", got)
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("@1s explode\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runScript(t, f, "play "+bad); !strings.Contains(out, `line 1: unknown operation "explode"`) {
		t.Errorf("bad schedule not reported: %s", out)
	}
}

func TestReplTraceAndHealth(t *testing.T) {
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed:         9,
		AdminNodes:   2,
		Domains:      []gulfstream.DomainSpec{{Name: "acme", FrontEnds: 1, BackEnds: 2}},
		StartSkew:    time.Second,
		RecordEvents: true,
		Trace:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	out := runScript(t, f, strings.Join([]string{
		"run 40",
		"trace 10",
		"trace txns",
		"trace view-commit",
		"trace mgmt-00",
		"health",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"captured",               // trace header
		"txn ",                   // correlated 2PC timeline
		"2pc-prepare-sent",       // inside the txn dump
		"2pc-commit-sent",        // the round committed
		`matching "view-commit"`, // kind filter
		`matching "mgmt-00"`,     // node filter
		"hosts Central",          // health marks the elected node
		"leader",                 // health shows adapter roles
		"stable=true",            // central line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReplTraceDisabled(t *testing.T) {
	f := testFarm(t) // Spec.Trace unset: recorder present but disabled
	out := runScript(t, f, "trace\nquit\n")
	if !strings.Contains(out, "flight recorder disabled") {
		t.Errorf("expected disabled hint:\n%s", out)
	}
}

func TestReplTraceJSON(t *testing.T) {
	f, err := gulfstream.NewFarm(gulfstream.Spec{
		Seed: 3, AdminNodes: 2, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	out := runScript(t, f, "run 20\ntrace json\nquit\n")
	for _, want := range []string{`"records"`, `"kind"`, `"total"`} {
		if !strings.Contains(out, want) {
			t.Errorf("json dump missing %q:\n%s", want, out)
		}
	}
}
