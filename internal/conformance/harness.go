package conformance

import (
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ordered"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Suite is one named conformance scenario: an optional spec mutation
// applied before boot (planting configdb lies), and a body driving the
// live farm. The harness handles boot, scraping, teardown, and the
// verdict pipeline around it.
type Suite struct {
	Name    string
	Desc    string
	Prepare func(*FarmSpec)
	Run     func(*H) error
}

// Options configures a harness run.
type Options struct {
	// Bin is the gsd binary; empty builds it into the artifacts dir.
	Bin string
	// Fabric selects "loopback" (default) or "netns".
	Fabric string
	// Artifacts is the output directory (default: a temp dir).
	Artifacts string
	// Logf receives progress lines (default: discard).
	Logf func(string, ...any)
	// PollEvery is the background scrape cadence (default 500ms).
	PollEvery time.Duration
}

// Result is one suite's outcome.
type Result struct {
	Suite   string   `json:"suite"`
	Fabric  string   `json:"fabric"`
	Passed  bool     `json:"passed"`
	Err     string   `json:"error,omitempty"`
	Seconds float64  `json:"seconds"`
	Verdict *Verdict `json:"verdict,omitempty"`
}

// BuildGSD compiles the daemon into dir and returns the binary path.
func BuildGSD(dir string) (string, error) {
	bin := filepath.Join(dir, "gsd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/gsd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("conformance: go build gsd: %v\n%s", err, out)
	}
	return bin, nil
}

// Run executes the suites sequentially, each on a fresh farm, and
// returns per-suite results. A suite failure does not stop the run.
func Run(suites []Suite, opts Options) ([]Result, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Artifacts == "" {
		dir, err := os.MkdirTemp("", "gshive-*")
		if err != nil {
			return nil, err
		}
		opts.Artifacts = dir
	}
	if err := os.MkdirAll(opts.Artifacts, 0o755); err != nil {
		return nil, err
	}
	bin := opts.Bin
	if bin == "" {
		var err error
		if bin, err = BuildGSD(opts.Artifacts); err != nil {
			return nil, err
		}
	}
	poll := opts.PollEvery
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	var results []Result
	for _, suite := range suites {
		start := time.Now()
		logf("=== suite %s (%s)", suite.Name, suite.Desc)
		res := runSuite(suite, bin, opts.Fabric, filepath.Join(opts.Artifacts, suite.Name), poll, logf)
		res.Seconds = time.Since(start).Seconds()
		if res.Passed {
			logf("--- PASS %s (%.1fs)", suite.Name, res.Seconds)
		} else {
			logf("--- FAIL %s (%.1fs): %s", suite.Name, res.Seconds, res.Err)
		}
		results = append(results, res)
	}
	if err := writeJSON(filepath.Join(opts.Artifacts, "results.json"), results); err != nil {
		return results, err
	}
	return results, nil
}

func runSuite(suite Suite, bin, fabricKind, art string, poll time.Duration,
	logf func(string, ...any)) Result {

	res := Result{Suite: suite.Name, Fabric: fabricKind}
	var spec *FarmSpec
	var sub substrate
	switch fabricKind {
	case "", "loopback":
		spec, sub = DefaultFarm(), loopback{}
	case "netns":
		ns, err := newNetns()
		if err != nil {
			res.Err = err.Error()
			return res
		}
		spec, sub = NetnsFarm(), ns
	default:
		res.Err = fmt.Sprintf("unknown fabric %q", fabricKind)
		return res
	}
	res.Fabric = sub.kind()
	if suite.Prepare != nil {
		suite.Prepare(spec)
	}

	h := &H{Spec: spec, S: NewScraper(), Art: art, logf: logf, dead: map[string]bool{}}
	h.F = newFabric(spec, sub, bin, art, logf, h.S.Track)
	if err := h.F.Boot(); err != nil {
		res.Err = "boot: " + err.Error()
		h.F.Close()
		return res
	}
	stopPoll := h.S.Start(poll)

	runErr := suite.Run(h)

	// Final topology snapshot (with verification) before teardown.
	finalTopo, topoErr := h.Topology(true)
	stopPoll()
	h.S.Poll() // final drain while every surviving daemon still runs
	closeErr := h.F.Close()

	gt := h.GroundTruth()
	verdict := evaluate(suite.Name, res.Fabric, h.S, spec, finalTopo, gt)
	res.Verdict = verdict
	if err := writeArtifacts(art, verdict, h.S, finalTopo, gt); err != nil {
		logf("suite %s: artifacts: %v", suite.Name, err)
	}

	switch {
	case runErr != nil:
		res.Err = runErr.Error()
	case topoErr != nil:
		res.Err = "final topology: " + topoErr.Error()
	case closeErr != nil:
		res.Err = "teardown: " + closeErr.Error()
	case !verdict.Passed:
		res.Err = verdict.summary()
	default:
		res.Passed = true
	}
	return res
}

// summary flattens a failing verdict into one message.
func (v *Verdict) summary() string {
	var parts []string
	add := func(label string, items []string) {
		if len(items) > 0 {
			parts = append(parts, fmt.Sprintf("%s (%d): %s", label, len(items), items[0]))
		}
	}
	add("invariant violations", v.Violations)
	add("unclosed spans", v.AuditFindings)
	add("topology diff", v.TopologyDiff)
	add("mismatch diff", v.MismatchDiff)
	if len(parts) == 0 {
		return "failed"
	}
	return strings.Join(parts, "; ")
}

// H is the live handle a suite body drives the farm through.
type H struct {
	Spec *FarmSpec
	F    *Fabric
	S    *Scraper
	Art  string

	logf func(string, ...any)

	mu             sync.Mutex
	dead           map[string]bool
	expectMismatch []string
}

// Logf logs a progress line into the harness output.
func (h *H) Logf(format string, args ...any) { h.logf(format, args...) }

// ExpectMismatch declares configdb verification verdicts (substrings)
// the final verification must raise.
func (h *H) ExpectMismatch(subs ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expectMismatch = append(h.expectMismatch, subs...)
}

// GroundTruth snapshots the declared reality right now.
func (h *H) GroundTruth() *GroundTruth {
	h.mu.Lock()
	dead := make(map[string]bool, len(h.dead))
	for n, v := range h.dead {
		if v {
			dead[n] = true
		}
	}
	expect := append([]string(nil), h.expectMismatch...)
	h.mu.Unlock()
	return h.Spec.GroundTruth(h.F.VLANOf, dead, expect)
}

// KillNode drains the victim's trace feed, SIGKILLs it, and marks it
// dead in the ground truth.
func (h *H) KillNode(node string) error {
	h.S.Poll()
	if err := h.F.KillNode(node); err != nil {
		return err
	}
	h.S.Inject(trace.KFaultInjected, node, "harness: kill (SIGKILL)")
	h.mu.Lock()
	h.dead[node] = true
	h.mu.Unlock()
	return nil
}

// RestartNode boots a fresh incarnation and clears the dead mark.
func (h *H) RestartNode(node string) error {
	if err := h.F.RestartNode(node); err != nil {
		return err
	}
	h.S.Inject(trace.KFaultInjected, node, "harness: restart")
	h.mu.Lock()
	delete(h.dead, node)
	h.mu.Unlock()
	return nil
}

// PauseNode SIGSTOPs a node — the process freeze the loopback fabric
// uses as a recoverable fail-stop.
func (h *H) PauseNode(node string) error {
	d, ok := h.F.Live(node)
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	h.S.Poll()
	if err := d.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	h.S.Inject(trace.KFaultInjected, node, "harness: pause (SIGSTOP)")
	return nil
}

// ResumeNode SIGCONTs a paused node.
func (h *H) ResumeNode(node string) error {
	d, ok := h.F.Live(node)
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	if err := d.Signal(syscall.SIGCONT); err != nil {
		return err
	}
	h.S.Inject(trace.KFaultInjected, node, "harness: resume (SIGCONT)")
	return nil
}

// FailAdapter injects an adapter failure mode through the fabric.
func (h *H) FailAdapter(ip transport.IP, mode string, lossIn, lossOut float64) error {
	if err := h.F.FailAdapter(ip, mode, lossIn, lossOut); err != nil {
		return err
	}
	node, _, _ := h.Spec.Adapter(ip)
	h.S.Inject(trace.KFaultInjected, node,
		fmt.Sprintf("harness: adapter %v -> %s in=%.2f out=%.2f", ip, mode, lossIn, lossOut))
	return nil
}

// SurpriseMove re-plugs an adapter behind Central's back.
func (h *H) SurpriseMove(ip transport.IP, vlan int) error {
	if err := h.F.RescopeAdapter(ip, vlan); err != nil {
		return err
	}
	node, _, _ := h.Spec.Adapter(ip)
	h.S.Inject(trace.KFaultInjected, node,
		fmt.Sprintf("harness: surprise move %v -> vlan %d", ip, vlan))
	return nil
}

// PlannedMove asks the active Central to relocate a node's adapters
// (index -> new VLAN) through the switch agent, as the paper's §2.2
// dynamic reconfiguration.
func (h *H) PlannedMove(node string, vlanByIndex map[int]int) error {
	central, doc := h.activeCentral()
	if central == nil {
		return fmt.Errorf("conformance: no active Central for move (last: %+v)", doc)
	}
	var pairs []string
	for _, i := range ordered.Keys(vlanByIndex) {
		pairs = append(pairs, fmt.Sprintf("%d:%d", i, vlanByIndex[i]))
	}
	q := url.Values{"node": {node}, "set": {strings.Join(pairs, ",")}}
	h.S.Inject(trace.KFaultInjected, node,
		fmt.Sprintf("harness: planned move set=%s via %s", strings.Join(pairs, ","), central.Node))
	return httpCommand(central.DebugURL()+"/fabricctl/move?"+q.Encode(), httpMoveTimeout)
}

// ActiveCentral names the node hosting the active Central ("" if none
// is reachable).
func (h *H) ActiveCentral() string {
	d, _ := h.activeCentral()
	if d == nil {
		return ""
	}
	return d.Node
}

// activeCentral polls every live daemon's /topology for the active
// Central instance.
func (h *H) activeCentral() (*Daemon, *TopologyDoc) {
	var last *TopologyDoc
	for _, d := range h.F.LiveDaemons() {
		var doc TopologyDoc
		if err := httpGetJSON(d.DebugURL()+"/topology", &doc, httpTimeout); err != nil {
			continue
		}
		last = &doc
		if doc.HostingCentral && doc.Active {
			return d, &doc
		}
	}
	return nil, last
}

// Topology fetches the active Central's topology document, optionally
// running configdb verification.
func (h *H) Topology(verify bool) (*TopologyDoc, error) {
	d, _ := h.activeCentral()
	if d == nil {
		return nil, fmt.Errorf("conformance: no active Central reachable")
	}
	u := d.DebugURL() + "/topology"
	if verify {
		u += "?verify=1"
	}
	var doc TopologyDoc
	if err := httpGetJSON(u, &doc, httpTimeout); err != nil {
		return nil, err
	}
	return &doc, nil
}

// WaitSettled polls until the active Central is stable and its
// discovered topology matches the ground truth (open incidents are
// allowed — a dead node legitimately keeps one open). Returns the last
// divergence on timeout.
func (h *H) WaitSettled(timeout time.Duration) error {
	return h.waitTopology(timeout, false)
}

// WaitConverged is WaitSettled plus "every incident closed" — the
// quiescent end state suites finish on.
func (h *H) WaitConverged(timeout time.Duration) error {
	return h.waitTopology(timeout, true)
}

func (h *H) waitTopology(timeout time.Duration, needClosed bool) error {
	deadline := time.Now().Add(timeout)
	lastWhy := "no active Central reachable"
	for {
		doc, err := h.Topology(false)
		switch {
		case err != nil:
			lastWhy = err.Error()
		case !doc.Stable:
			lastWhy = fmt.Sprintf("Central on %s not stable yet", doc.Node)
		case needClosed && len(doc.Incidents) > 0:
			lastWhy = fmt.Sprintf("open incidents: %v", doc.Incidents)
		default:
			if diff := h.GroundTruth().Diff(doc); len(diff) > 0 {
				lastWhy = strings.Join(diff, "; ")
			} else {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conformance: not converged after %v: %s", timeout, lastWhy)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// WaitFor polls an arbitrary condition.
func (h *H) WaitFor(what string, timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			if lastErr != nil {
				return fmt.Errorf("conformance: timed out waiting for %s: %v", what, lastErr)
			}
			return fmt.Errorf("conformance: timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Millisecond)
	}
}
