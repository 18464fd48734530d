package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
)

// gsbench runs the command in a fresh, empty working directory and
// returns what it printed, its exit status and the directory.
func gsbench(t *testing.T, args ...string) (stdout, stderr string, code int, dir string) {
	t.Helper()
	dir = t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code, dir
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exp.Experiments {
		if e.Name == "" || e.Desc == "" || e.Run == nil || seen[e.Name] {
			t.Errorf("row %q: empty field or duplicate name", e.Name)
		}
		seen[e.Name] = true
	}
}

// Every row runs at -quick, prints its table and exits 0, and writes no
// file. The chaos row gets CI's four passing seeds: its default sweep is
// ROADMAP's known-red one.
func TestEveryRowRunsQuickAndWritesNothing(t *testing.T) {
	for _, e := range exp.Experiments {
		args := []string{e.Name, "-quick"}
		if e.Name == "chaos" {
			args = append(args, "-seeds", "4", "-from", "9000")
		}
		stdout, stderr, code, dir := gsbench(t, args...)
		if code != 0 || !strings.HasPrefix(stdout, "== E") || !strings.Contains(stdout, "("+e.Name+" wall time: ") {
			t.Errorf("gsbench %v: exit %d\n%s%s", args, code, stdout, stderr)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("gsbench %v left %d entries behind, first %s", args, len(left), left[0].Name())
		}
	}
}

// A row that reports failures makes the process exit 1, and -o is the one
// flag that makes gsbench write: the planted §3 flaw fails every seed.
func TestFailedRowExitsOne(t *testing.T) {
	stdout, _, code, dir := gsbench(t, "chaos", "-seeds", "2", "-from", "9000", "-seed-bug", "-no-shrink", "-o", "art")
	if code != 1 || !strings.Contains(stdout, "2/2 seeds FAILED") {
		t.Errorf("exit %d, want 1 with both seeds failing\n%s", code, stdout)
	}
	if left, _ := os.ReadDir(dir + "/art"); len(left) != 2 {
		t.Errorf("%d artifacts under -o, want one per failing seed", len(left))
	}
}

func TestListAndUsageComeFromTheRegistry(t *testing.T) {
	list, _, code, _ := gsbench(t, "-list")
	if code != 0 {
		t.Errorf("-list: exit %d", code)
	}
	stdout, usage, code, _ := gsbench(t, "fig5", "no-such-experiment")
	if code != 2 || stdout != "" || !strings.Contains(usage, `unknown experiment "no-such-experiment"`) {
		t.Errorf("unknown name: exit %d, stdout %q, stderr:\n%s", code, stdout, usage)
	}
	for _, e := range exp.Experiments {
		line := e.Name + strings.Repeat(" ", 13-len(e.Name)) + e.Desc + "\n"
		if !strings.Contains(list, line) || !strings.Contains(usage, line) {
			t.Errorf("row %q missing from -list or from the usage text", e.Name)
		}
	}
	if n := strings.Count(list, "\n"); n != len(exp.Experiments) {
		t.Errorf("-list printed %d lines for %d rows", n, len(exp.Experiments))
	}
}

// -cpuprofile and -memprofile parse before or after the names, and each
// writes a gzip-compressed pprof file; a profile that cannot be created
// stops gsbench before any experiment runs.
func TestProfileFlags(t *testing.T) {
	stdout, stderr, code, dir := gsbench(t, "-cpuprofile", "cpu.out", "fig5", "-quick", "-memprofile", "mem.out")
	if code != 0 || !strings.Contains(stdout, "(fig5 wall time: ") {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	for _, name := range []string{"cpu.out", "mem.out"} {
		b, err := os.ReadFile(dir + "/" + name)
		if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, err %v; want a gzip-compressed profile", name, len(b), err)
		}
	}
	stdout, stderr, code, _ = gsbench(t, "fig5", "-quick", "-cpuprofile", "no/such/dir/cpu.out")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "no/such/dir/cpu.out") {
		t.Errorf("uncreatable profile: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
