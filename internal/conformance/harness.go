package conformance

import (
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/central"
	"repro/internal/check"
	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Suite is one named conformance scenario: an optional spec mutation
// applied before boot (planting configdb lies), and the steps that drive
// the live farm. The harness handles boot, observation, teardown, and
// the verdict pipeline around them.
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
	// Fabric selects "loopback" (default), "netns", or "sim" (the
	// simulator, in virtual time; no gsd binary).
	Fabric string
	// Artifacts is the output directory (default: a temp dir).
	Artifacts string
	// Logf receives progress lines (default: discard).
	Logf func(string, ...any)
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
	if bin == "" && opts.Fabric != "sim" {
		var err error
		if bin, err = BuildGSD(opts.Artifacts); err != nil {
			return nil, err
		}
	}

	var results []Result
	for _, suite := range suites {
		start := time.Now()
		logf("=== suite %s (%s)", suite.Name, suite.Desc)
		art := filepath.Join(opts.Artifacts, suite.Name)
		spec := DefaultFarm()
		if opts.Fabric == "netns" {
			spec = NetnsFarm()
		}
		boot := func(spec *FarmSpec) (world, error) {
			switch opts.Fabric {
			case "", "loopback":
				return bootProcesses(spec, loopback{}, bin, art, logf)
			case "netns":
				ns, err := newNetns()
				if err != nil {
					return nil, err
				}
				return bootProcesses(spec, ns, bin, art, logf)
			case "sim":
				return newSim(spec)
			}
			return nil, fmt.Errorf("unknown fabric %q", opts.Fabric)
		}
		res := runSuite(suite, spec, cmp.Or(opts.Fabric, "loopback"), boot, art, logf)
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

// world is where a suite's farm runs: real gsd processes (Fabric) or the
// simulator (simWorld). H drives it as a check.Target on the world's own
// clock, so the same loop sleeps on the wall clock or advances virtual
// time.
type world interface {
	check.Target
	// Topology reads the active Central's topology document, with or
	// without configdb verification.
	Topology(verify bool) (*central.Topology, error)
	// Records returns the farm-wide trace so far, in one chronology.
	Records() []trace.Record
	// VLANOf reports the VLAN an adapter is plugged into now.
	VLANOf(ip transport.IP) int
	// close tears the farm down after the final topology read. It reports
	// how many trace sources fed Records, and what the trace lacks.
	close() (sources int, warnings []string, err error)
}

// runSuite boots the suite's farm in a world, plays the steps, and
// judges the outcome.
func runSuite(suite Suite, spec *FarmSpec, fabric string, boot func(*FarmSpec) (world, error), art string,
	logf func(string, ...any)) Result {

	res := Result{Suite: suite.Name, Fabric: fabric}
	if suite.Prepare != nil {
		suite.Prepare(spec)
	}
	w, err := boot(spec)
	if err != nil {
		res.Err = "boot: " + err.Error()
		return res
	}
	h := &H{world: w, Spec: spec, logf: logf,
		dead: map[string]bool{}, planned: map[transport.IP]int{}, pending: map[transport.IP]int{}}
	runErr := h.run(suite.Steps)
	finalTopo, topoErr := w.Topology(true)
	sources, warnings, closeErr := w.close()
	records := w.Records()

	gt := h.GroundTruth()
	verdict := evaluate(suite.Name, res.Fabric, records, spec, finalTopo, gt)
	verdict.Sources, verdict.Warnings = sources, warnings
	res.Verdict = verdict
	if err := writeArtifacts(art, verdict, records, finalTopo, gt); err != nil {
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

// H is the handle the suites drive the farm through, in either world. It
// is the world's check.Target with the ground truth kept beside it: the
// nodes it killed, and the VLANs its planned moves put adapters on.
type H struct {
	world
	Spec *FarmSpec
	logf func(string, ...any)

	mu      sync.Mutex
	dead    map[string]bool
	planned map[transport.IP]int // adapter -> VLAN a planned move put it on
	pending map[transport.IP]int // planned moves not yet seen on the fabric
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
	start := h.Now()
	var last time.Duration
	for _, op := range sched.Ops {
		h.runUntil(start + op.At)
		if err := check.Apply(h, op); err != nil {
			return fmt.Errorf("@%v %s: %w", op.At, op.Kind, err)
		}
		last = op.At
	}
	h.runUntil(start + last + sched.Settle)
	return nil
}

// runUntil lets the world run up to instant t of its clock.
func (h *H) runUntil(t time.Duration) {
	if d := t - h.Now(); d > 0 {
		h.RunFor(d)
	}
}

// wait polls until the step's state holds, failing after
// convergeTimeout with the last reason it did not.
func (h *H) wait(s Step) error {
	deadline := h.Now() + convergeTimeout
	for {
		why := h.unmet(s)
		if why == "" {
			return nil
		}
		if h.Now() > deadline {
			return fmt.Errorf("conformance: waited %v for %s: %s", convergeTimeout, s.Wait, why)
		}
		h.RunFor(500 * time.Millisecond)
	}
}

// unmet says why the step's state does not hold yet ("" once it does).
func (h *H) unmet(s Step) string {
	h.mu.Lock()
	for _, ip := range ordered.Keys(h.pending) {
		if v := h.pending[ip]; h.VLANOf(ip) != v {
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
	return h.Spec.GroundTruth(h.VLANOf, h.dead, h.planned)
}

// KillNode implements check.Target, marking the node dead in the ground
// truth.
func (h *H) KillNode(node string) error {
	if err := h.world.KillNode(node); err != nil {
		return err
	}
	h.mu.Lock()
	h.dead[node] = true
	h.mu.Unlock()
	return nil
}

// RestartNode implements check.Target: a fresh incarnation, no longer
// dead in the ground truth.
func (h *H) RestartNode(node string) error {
	if err := h.world.RestartNode(node); err != nil {
		return err
	}
	h.mu.Lock()
	delete(h.dead, node)
	h.mu.Unlock()
	return nil
}

// MoveNodeToDomain implements check.Target: the active Central moves the
// node's adapters onto the domain's VLANs through the switch agent, the
// paper's §2.2 dynamic reconfiguration. Once the world has ordered the
// move, every later wait holds until it has landed on the fabric.
func (h *H) MoveNodeToDomain(node, toDomain string, done func(error)) error {
	moves, err := h.Spec.Moves(node, toDomain)
	if err != nil {
		return err
	}
	if err := h.world.MoveNodeToDomain(node, toDomain, done); err != nil {
		return err
	}
	n, _ := h.Spec.Node(node)
	h.mu.Lock()
	for _, a := range n.Adapters {
		if vlan, ok := moves[a.Index]; ok {
			h.planned[a.IP], h.pending[a.IP] = vlan, vlan
		}
	}
	h.mu.Unlock()
	return nil
}
