package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/transport"
)

// buildGSD compiles the daemon once per test binary into a temp dir.
func buildGSD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestReadyFDAndGracefulShutdown is the orchestration contract: a daemon
// started with -ready-fd writes exactly one JSON readiness line on that
// descriptor once its protocol clock runs, and a SIGTERM ends the process
// with exit code 0 (deterministically, so the harness can distinguish a
// clean teardown from a crash).
func TestReadyFDAndGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildGSD(t)

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	cmd := exec.Command(bin,
		"-node", "test-1",
		"-adapters", "127.0.0.1",
		"-fast",
		"-trace=false",
		"-ready-fd", "3",
	)
	cmd.ExtraFiles = []*os.File{pw} // child fd 3
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	pw.Close() // child holds the write end now
	defer cmd.Process.Kill()

	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	var line string
	select {
	case line = <-lineCh:
	case <-time.After(15 * time.Second):
		t.Fatal("no readiness line within 15s")
	}
	if line == "" {
		t.Fatal("readiness pipe closed without a line")
	}

	var info struct {
		Node        string   `json:"node"`
		PID         int      `json:"pid"`
		StartUnixNS int64    `json:"start_unix_ns"`
		Adapters    []string `json:"adapters"`
	}
	if err := json.Unmarshal([]byte(line), &info); err != nil {
		t.Fatalf("readiness line %q: %v", line, err)
	}
	if info.Node != "test-1" || info.PID != cmd.Process.Pid {
		t.Fatalf("readiness = %+v, want node test-1 pid %d", info, cmd.Process.Pid)
	}
	if len(info.Adapters) != 1 || info.Adapters[0] != "127.0.0.1" {
		t.Fatalf("adapters = %v", info.Adapters)
	}
	now := time.Now().UnixNano()
	if info.StartUnixNS <= 0 || info.StartUnixNS > now || now-info.StartUnixNS > int64(time.Minute) {
		t.Fatalf("start_unix_ns %d implausible (now %d)", info.StartUnixNS, now)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v (want code 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// TestParseAdapters covers the ip@scope syntax the loopback fabric uses.
func TestParseAdapters(t *testing.T) {
	rt := transport.NewRuntime()
	defer rt.Close()

	eps, scoped, raw, err := parseAdapters(rt, "127.0.0.1, 127.0.0.2@239.71.0.5")
	defer closeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || len(scoped) != 1 || len(raw) != 2 {
		t.Fatalf("eps=%d scoped=%d raw=%d", len(eps), len(scoped), len(raw))
	}
	sc, ok := scoped[transport.MakeIP(127, 0, 0, 2)]
	if !ok {
		t.Fatal("scoped endpoint not indexed by adapter IP")
	}
	if sc.Scope() != transport.MakeIP(239, 71, 0, 5) {
		t.Fatalf("scope = %v", sc.Scope())
	}
	if eps[1] != transport.Endpoint(sc) {
		t.Fatal("scoped adapter not wrapped in endpoint list")
	}

	for _, bad := range []string{"nonsense", "127.0.0.1@not-multicast", "127.0.0.1@10.0.0.1"} {
		_, _, raw, err := parseAdapters(rt, bad)
		closeAll(raw)
		if err == nil {
			t.Errorf("parseAdapters(%q) accepted", bad)
		}
	}
}

// TestParseSwitches covers the -switches name=ip:port syntax.
func TestParseSwitches(t *testing.T) {
	got, err := parseSwitches("sw-1=10.71.0.254:10161, sw-2=10.71.0.253")
	if err != nil {
		t.Fatal(err)
	}
	want1 := transport.Addr{IP: transport.MakeIP(10, 71, 0, 254), Port: 10161}
	want2 := transport.Addr{IP: transport.MakeIP(10, 71, 0, 253), Port: transport.PortSNMP}
	if got["sw-1"] != want1 || got["sw-2"] != want2 {
		t.Fatalf("parseSwitches = %v", got)
	}
	for _, bad := range []string{"sw-1", "sw-1=zzz", "sw-1=10.0.0.1:99999"} {
		if _, err := parseSwitches(bad); err == nil {
			t.Errorf("parseSwitches(%q) accepted", bad)
		}
	}
}
