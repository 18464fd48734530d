package conformance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// readyTimeout bounds how long a daemon may take to report readiness.
const readyTimeout = 20 * time.Second

// Daemon is one incarnation of a gsd process under harness control.
// A restarted node gets a fresh Daemon with Gen+1; every incarnation's
// trace stream is a separate source of the farm trace.
type Daemon struct {
	Node  string
	Gen   int
	Ready transport.Ready
	Log   string // per-daemon log file path

	// What the fabric scraped of its trace, under the fabric's lock.
	recs    []trace.Record
	lastSeq uint64
	gapped  bool

	cmd  *exec.Cmd
	mu   sync.Mutex
	done bool
	err  error
	wait chan struct{}
}

// Source names this incarnation's trace stream ("web-1#2").
func (d *Daemon) Source() string { return fmt.Sprintf("%s#%d", d.Node, d.Gen) }

// DebugURL is the incarnation's debug endpoint base URL.
func (d *Daemon) DebugURL() string { return "http://" + d.Ready.DebugAddr }

// startDaemon launches argv[0] with the given arguments, wiring a pipe
// onto child fd 3 and waiting for the readiness line. Stdout/stderr go
// to logPath. The returned Daemon is running and ready.
func startDaemon(node string, gen int, argv []string, logPath string) (*Daemon, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		pw.Close()
		return nil, err
	}
	defer logf.Close()

	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.ExtraFiles = []*os.File{pw} // child fd 3
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, fmt.Errorf("conformance: start %s: %w", node, err)
	}
	pw.Close() // the child holds the write end now

	d := &Daemon{Node: node, Gen: gen, Log: logPath, cmd: cmd, wait: make(chan struct{})}
	go func() {
		err := cmd.Wait()
		d.mu.Lock()
		d.done, d.err = true, err
		d.mu.Unlock()
		close(d.wait)
	}()

	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	select {
	case line, ok := <-lineCh:
		if !ok || line == "" {
			d.Kill()
			return nil, fmt.Errorf("conformance: %s exited before reporting ready (log: %s)", node, logPath)
		}
		if err := json.Unmarshal([]byte(line), &d.Ready); err != nil {
			d.Kill()
			return nil, fmt.Errorf("conformance: %s readiness line %q: %w", node, line, err)
		}
	case <-time.After(readyTimeout):
		d.Kill()
		return nil, fmt.Errorf("conformance: %s not ready within %v (log: %s)", node, readyTimeout, logPath)
	}
	if d.Ready.DebugAddr == "" {
		d.Kill()
		return nil, fmt.Errorf("conformance: %s reported no debug address", node)
	}
	return d, nil
}

// Alive reports whether the process is still running.
func (d *Daemon) Alive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.done
}

// Kill SIGKILLs the process and reaps it — the fail-stop crash.
func (d *Daemon) Kill() {
	d.mu.Lock()
	done := d.done
	d.mu.Unlock()
	if !done {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Process.Signal(syscall.SIGCONT) // a stopped process ignores nothing but KILL+CONT
	}
	<-d.wait
}

// Stop SIGTERMs the process and verifies the deterministic clean exit.
func (d *Daemon) Stop(timeout time.Duration) error {
	if !d.Alive() {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.wait:
		d.mu.Lock()
		err := d.err
		d.mu.Unlock()
		if err != nil {
			return fmt.Errorf("conformance: %s did not exit cleanly on SIGTERM: %w (log: %s)", d.Source(), err, d.Log)
		}
		return nil
	case <-time.After(timeout):
		d.Kill()
		return fmt.Errorf("conformance: %s ignored SIGTERM for %v, killed", d.Source(), timeout)
	}
}
