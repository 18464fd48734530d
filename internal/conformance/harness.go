package conformance

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/netsim"
	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Suite is one named conformance scenario: an optional spec mutation
// applied before boot (planting configdb lies), and the steps that drive
// the live farm. The harness handles boot, scraping, teardown, and the
// verdict pipeline around them.
type Suite struct {
	Name    string
	Desc    string
	Prepare func(*FarmSpec)
	Steps   []Step
}

// The states a step waits for. Both need the active Central stable and
// its topology equal to the ground truth; converged also needs every
// incident closed (a dead node legitimately keeps one open).
const (
	settled   = "settled"
	converged = "converged"
)

// Step waits for the farm to reach a state, then plays check-DSL text
// through check.Apply, each op at its offset from the instant the wait
// ended, and runs on to the last op plus the text's settle period (none
// without a settle line). A held fault reverts on its own timer.
type Step struct {
	// Wait is settled, converged, or the name of Until. Every wait also
	// holds until each planned move has landed on the fabric.
	Wait  string
	Until func(*H) bool
	// Ops builds the text from the farm spec; Live, when set instead,
	// builds it from the live farm.
	Ops  func(*FarmSpec) string
	Live func(*H) (string, error)
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

	h := &H{Spec: spec, S: NewScraper(), logf: logf, start: time.Now(),
		dead: map[string]bool{}, planned: map[transport.IP]int{}, pending: map[transport.IP]int{}}
	h.F = newFabric(spec, sub, bin, art, logf, h.S.Track)
	if err := h.F.Boot(); err != nil {
		res.Err = "boot: " + err.Error()
		h.F.Close()
		return res
	}
	stopPoll := h.S.Start(poll)

	runErr := h.run(suite.Steps)
	h.mu.Lock()
	for _, t := range h.timers {
		t.Stop()
	}
	h.mu.Unlock()

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

// H is the live handle the suites drive the farm through. It is the
// check.Target their ops go into, on the wall clock, and it keeps the
// ground truth (dead nodes, planned moves) as it injects.
type H struct {
	Spec *FarmSpec
	F    *Fabric
	S    *Scraper

	logf  func(string, ...any)
	start time.Time

	mu      sync.Mutex
	dead    map[string]bool
	planned map[transport.IP]int // adapter -> VLAN a planned move put it on
	pending map[transport.IP]int // planned moves not yet seen on the fabric
	timers  []*time.Timer
}

var _ check.Target = (*H)(nil)

// run plays the suite's steps in order.
func (h *H) run(steps []Step) error {
	for i, s := range steps {
		err := h.wait(s)
		text := ""
		switch {
		case err != nil:
		case s.Live != nil:
			text, err = s.Live(h)
		case s.Ops != nil:
			text = s.Ops(h.Spec)
		}
		if err == nil {
			err = h.play(text)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", i+1, err)
		}
	}
	return nil
}

// play applies check-DSL text to the farm, each op at its offset from
// now, and returns at the last op plus the text's settle period.
func (h *H) play(text string) error {
	sched, err := check.Parse(text)
	if err != nil {
		return err
	}
	if len(sched.Ops) > 0 {
		h.logf("suite: playing %s", strings.ReplaceAll(strings.TrimSpace(text), "\n", "; "))
	}
	start := time.Now()
	var last time.Duration
	for _, op := range sched.Ops {
		time.Sleep(time.Until(start.Add(op.At)))
		if err := check.Apply(h, op); err != nil {
			return fmt.Errorf("@%v %s: %w", op.At, op.Kind, err)
		}
		last = op.At
	}
	time.Sleep(time.Until(start.Add(last + sched.Settle)))
	return nil
}

// wait polls until the step's state holds, failing after
// convergeTimeout with the last reason it did not.
func (h *H) wait(s Step) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		why := h.unmet(s)
		if why == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conformance: waited %v for %s: %s", convergeTimeout, s.Wait, why)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// unmet says why the step's state does not hold yet ("" once it does).
func (h *H) unmet(s Step) string {
	h.mu.Lock()
	for _, ip := range ordered.Keys(h.pending) {
		if v := h.pending[ip]; h.F.VLANOf(ip) != v {
			h.mu.Unlock()
			return fmt.Sprintf("planned move of %v to %s has not landed", ip, switchsim.SegmentName(v))
		}
		delete(h.pending, ip)
	}
	h.mu.Unlock()
	switch {
	case s.Until != nil && s.Until(h):
		return ""
	case s.Until != nil:
		return "not yet"
	}
	doc, err := h.Topology(false)
	switch {
	case err != nil:
		return err.Error()
	case !doc.Stable:
		return fmt.Sprintf("Central on %s not stable yet", doc.Node)
	case s.Wait == converged && len(doc.Incidents) > 0:
		return fmt.Sprintf("open incidents: %v", doc.Incidents)
	}
	return strings.Join(h.GroundTruth().Diff(doc), "; ")
}

// GroundTruth snapshots the declared reality right now.
func (h *H) GroundTruth() *GroundTruth {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.Spec.GroundTruth(h.F.VLANOf, h.dead, h.planned)
}

// Now implements check.Target: wall time since the farm booted.
func (h *H) Now() time.Duration { return time.Since(h.start) }

// After implements check.Target; teardown stops what has not fired.
func (h *H) After(d time.Duration, fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.timers = append(h.timers, time.AfterFunc(d, fn))
}

// RunFor implements check.Target: real time passes, real daemons run.
func (h *H) RunFor(d time.Duration) { time.Sleep(d) }

// KillNode implements check.Target: it drains the victim's trace feed,
// SIGKILLs it, and marks it dead in the ground truth.
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

// RestartNode implements check.Target: a fresh incarnation, no longer
// dead in the ground truth.
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

// FailAdapter implements check.Target; the netsim mode names are the
// fabric fault-mode vocabulary by construction.
func (h *H) FailAdapter(ip transport.IP, mode netsim.FailureMode) error {
	return h.fault(ip, mode.String(), 0)
}

// SetSegmentLoss implements check.Target: a uniform loss rate on every
// adapter now on the segment (negative restores). Partition is loss 1.
func (h *H) SetSegmentLoss(segment string, loss float64) {
	for _, n := range h.Spec.Nodes {
		for _, a := range n.Adapters {
			if switchsim.SegmentName(h.F.VLANOf(a.IP)) != segment {
				continue
			}
			if err := h.fault(a.IP, "", max(loss, 0)); err != nil {
				h.logf("chaos: segment loss on %v: %v", a.IP, err)
			}
		}
	}
}

// fault puts one adapter into a failure mode with a loss rate each way.
func (h *H) fault(ip transport.IP, mode string, loss float64) error {
	if err := h.F.FailAdapter(ip, mode, loss, loss); err != nil {
		return err
	}
	node, _, _ := h.Spec.Adapter(ip)
	h.S.Inject(trace.KFaultInjected, node,
		fmt.Sprintf("harness: adapter %v -> %s in=%.2f out=%.2f", ip, mode, loss, loss))
	return nil
}

var errSwitchOutage = errors.New("conformance: the farm's one emulated switch carries the harness itself; no switch outages")

// KillSwitch implements check.Target; no suite can play it.
func (h *H) KillSwitch(string) error { return errSwitchOutage }

// RestoreSwitch implements check.Target; no suite can play it.
func (h *H) RestoreSwitch(string) error { return errSwitchOutage }

// MoveNodeToDomain implements check.Target: the active Central moves the
// node's data adapters onto the domain's VLAN through the switch agent,
// the paper's §2.2 dynamic reconfiguration. It returns once Central has
// the switch's acknowledgement; the fabric re-plugs after that, which
// every later wait holds for.
func (h *H) MoveNodeToDomain(node, toDomain string, done func(error)) error {
	data, vlan, err := h.dataAdapters(node, toDomain)
	if err != nil {
		return err
	}
	central, doc := h.activeCentral()
	if central == nil {
		return fmt.Errorf("conformance: no active Central for move (last: %+v)", doc)
	}
	var pairs []string
	for _, a := range data {
		pairs = append(pairs, fmt.Sprintf("%d:%d", a.Index, vlan))
	}
	set := strings.Join(pairs, ",")
	h.S.Inject(trace.KFaultInjected, node, fmt.Sprintf("harness: planned move set=%s via %s", set, central.Node))
	q := url.Values{"node": {node}, "set": {set}}
	err = httpCommand(central.DebugURL()+"/fabricctl/move?"+q.Encode(), httpMoveTimeout)
	if err == nil {
		h.mu.Lock()
		for _, a := range data {
			h.planned[a.IP], h.pending[a.IP] = vlan, vlan
		}
		h.mu.Unlock()
	}
	if done != nil {
		done(err)
	}
	return err
}

// SurpriseMoveNode implements check.Target: the node's data adapters are
// re-plugged onto the domain's VLAN behind Central's back.
func (h *H) SurpriseMoveNode(node, toDomain string) error {
	data, vlan, err := h.dataAdapters(node, toDomain)
	if err != nil {
		return err
	}
	for _, a := range data {
		if err := h.F.RescopeAdapter(a.IP, vlan); err != nil {
			return err
		}
	}
	h.S.Inject(trace.KFaultInjected, node, "harness: surprise move to "+toDomain)
	return nil
}

// dataAdapters resolves a node's data adapters and a domain's VLAN.
func (h *H) dataAdapters(node, domain string) ([]AdapterSpec, int, error) {
	vlan, ok := h.Spec.Domains()[domain]
	if !ok {
		return nil, 0, fmt.Errorf("conformance: unknown domain %q", domain)
	}
	spec, ok := h.Spec.Node(node)
	if !ok {
		return nil, 0, fmt.Errorf("conformance: unknown node %q", node)
	}
	var data []AdapterSpec
	for _, a := range spec.Adapters {
		if a.Index != 0 {
			data = append(data, a)
		}
	}
	return data, vlan, nil
}

// ActiveCentralNode implements check.Target: the node hosting the active
// Central ("" if none is reachable).
func (h *H) ActiveCentralNode() string {
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
