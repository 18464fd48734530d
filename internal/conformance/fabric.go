package conformance

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/central"
	"repro/internal/configdb"
	"repro/internal/netsim"
	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Fabric is the real-daemon world: a conformance farm's process
// lifecycle on the wall clock. It writes the (possibly lying) configdb,
// runs the harness-side switch agent, starts, kills and restarts real gsd
// processes, keeps the VLAN every adapter is plugged into, scrapes every
// incarnation's flight recorder (scrape.go), and injects faults and
// reconfigurations.
// How a VLAN segment is wired between the processes is the substrate's
// business (loopback.go, netns.go); everything else lives here once, so
// every suite runs unchanged on either.
type Fabric struct {
	spec  *FarmSpec
	sub   substrate
	bin   string
	art   string
	logf  func(string, ...any)
	start time.Time // the farm clock's zero

	stopAgent func()
	dbPath    string

	mu       sync.Mutex
	live     map[string]*Daemon
	gens     map[string]int
	vlan     map[transport.IP]int
	timers   []*time.Timer
	sources  []*Daemon // every incarnation started, in start order
	injected []trace.Record
	warnings []string
}

// substrate is what one fabric does differently from the other: how a
// segment is wired and how an adapter is faulted or re-plugged.
type substrate interface {
	// adapterArg is one adapter's entry in gsd's -adapters flag while
	// the adapter sits on vlan.
	adapterArg(f *Fabric, a configdb.AdapterSpec, vlan int) (string, error)
	// exec prefixes a node's gsd command line.
	exec(node string) []string
	// up wires the segments before the first daemon starts; down undoes
	// it after the last one stopped.
	up(f *Fabric) error
	down(f *Fabric)
	// wired runs after a daemon started and after an adapter moved.
	wired(f *Fabric)
	// fail puts one adapter into a netsim-style failure mode.
	fail(f *Fabric, a configdb.AdapterSpec, mode string, lossIn, lossOut float64) error
	// replug moves one adapter onto vlan; the fabric records the move
	// once this succeeds.
	replug(f *Fabric, a configdb.AdapterSpec, vlan int) error
}

// newFabric builds the farm's lifecycle over a substrate. bin is the gsd
// binary, art the artifacts directory (logs, journals and configdb land
// under it).
func newFabric(spec *FarmSpec, sub substrate, bin, art string, logf func(string, ...any)) *Fabric {
	f := &Fabric{
		spec: spec, sub: sub, bin: bin, art: art, logf: logf, start: time.Now(),
		live: map[string]*Daemon{}, gens: map[string]int{},
		vlan: map[transport.IP]int{},
	}
	for _, n := range spec.Nodes {
		for _, a := range n.Adapters {
			f.vlan[a.IP] = a.VLAN
		}
	}
	return f
}

// bootProcesses boots the farm on a substrate.
func bootProcesses(spec *FarmSpec, sub substrate, bin, art string, logf func(string, ...any)) (world, error) {
	f := newFabric(spec, sub, bin, art, logf)
	if err := f.boot(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// boot writes the configdb, wires the segments, starts the switch agent,
// then every node. On error the caller still owes a Close.
func (f *Fabric) boot() error {
	for _, dir := range []string{"logs", "journal"} {
		if err := os.MkdirAll(filepath.Join(f.art, dir), 0o755); err != nil {
			return err
		}
	}
	f.dbPath = filepath.Join(f.art, "configdb.json")
	db, err := f.spec.ConfigDB()
	if err != nil {
		return err
	}
	if err := db.Save(f.dbPath); err != nil {
		return err
	}
	if err := f.sub.up(f); err != nil {
		return err
	}
	f.stopAgent, err = startSwitchAgent(f.spec, func(a configdb.AdapterSpec, vlan int) {
		if err := f.rescope(a, vlan); err != nil {
			f.logf("fabric: SNMP move of %v to vlan %d: %v", a.IP, vlan, err)
		}
	})
	if err != nil {
		return err
	}
	for _, n := range f.spec.Nodes {
		if err := f.startNode(n.Name); err != nil {
			return err
		}
	}
	return nil
}

// command is the gsd command line for one incarnation of a node, its
// adapters on their current segments.
func (f *Fabric) command(name string, gen int) ([]string, error) {
	node, ok := f.spec.Node(name)
	if !ok {
		return nil, fmt.Errorf("conformance: unknown node %q", name)
	}
	adapters := make([]string, len(node.Adapters))
	f.mu.Lock()
	for i, a := range node.Adapters {
		arg, err := f.sub.adapterArg(f, a, f.vlan[a.IP])
		if err != nil {
			f.mu.Unlock()
			return nil, err
		}
		adapters[i] = arg
	}
	f.mu.Unlock()

	// Distinct seeds per incarnation keep 2PC round tokens from
	// colliding across a crash-restart in the merged farm trace.
	admin, sw := node.Adapters[0], f.spec.Switches[0]
	seed := int64(gen)*1000 + int64(admin.Port)
	return append(f.sub.exec(name),
		f.bin,
		"-node", name,
		"-adapters", strings.Join(adapters, ","),
		"-fast",
		"-seed", strconv.FormatInt(seed, 10),
		"-configdb", f.dbPath,
		"-community", f.spec.Community,
		"-switches", fmt.Sprintf("%s=%v:%d", sw.Name, sw.IP, f.spec.SwitchPort),
		"-journal-dir", filepath.Join(f.art, "journal", name),
		"-debug-addr", admin.IP.String()+":0",
		"-fabric-ctl", // loopback segments and faults; planned moves on both
		"-trace-cap", "16384",
		"-ready-fd", "3",
	), nil
}

// startNode launches a fresh incarnation of the node.
func (f *Fabric) startNode(name string) error {
	f.mu.Lock()
	gen := f.gens[name] + 1
	f.gens[name] = gen
	f.mu.Unlock()
	argv, err := f.command(name, gen)
	if err != nil {
		return err
	}
	logPath := filepath.Join(f.art, "logs", fmt.Sprintf("%s-gen%d.log", name, gen))
	d, err := startDaemon(name, gen, argv, logPath)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.live[name] = d
	f.sources = append(f.sources, d)
	f.mu.Unlock()
	f.logf("fabric: %s ready (pid %d, debug %s)", d.Source(), d.Ready.PID, d.Ready.DebugAddr)
	f.sub.wired(f)
	return nil
}

// Live returns the running incarnation of a node.
func (f *Fabric) Live(node string) (*Daemon, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.live[node]
	return d, ok
}

// liveDaemons lists all running incarnations in spec order.
func (f *Fabric) liveDaemons() []*Daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*Daemon
	for _, n := range f.spec.Nodes {
		if d, ok := f.live[n.Name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// Now implements check.Target: wall time since the farm booted.
func (f *Fabric) Now() time.Duration { return time.Since(f.start) }

// After implements check.Target; teardown stops what has not fired.
func (f *Fabric) After(d time.Duration, fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timers = append(f.timers, time.AfterFunc(d, fn))
}

// RunFor implements check.Target: real time passes, real daemons run.
func (f *Fabric) RunFor(d time.Duration) { time.Sleep(d) }

// KillNode implements check.Target: it drains the victim's trace feed,
// then fail-stops its process (SIGKILL).
func (f *Fabric) KillNode(node string) error {
	f.poll()
	f.mu.Lock()
	d, ok := f.live[node]
	delete(f.live, node)
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	d.Kill()
	f.logf("fabric: killed %s", d.Source())
	f.inject(node, "harness: kill (SIGKILL)")
	return nil
}

// RestartNode implements check.Target: a fresh incarnation of a
// previously killed node.
func (f *Fabric) RestartNode(node string) error {
	if _, running := f.Live(node); running {
		return fmt.Errorf("conformance: %s is still running", node)
	}
	if err := f.startNode(node); err != nil {
		return err
	}
	f.inject(node, "harness: restart")
	return nil
}

// FailAdapter implements check.Target; the netsim mode names are the
// fabric fault-mode vocabulary by construction.
func (f *Fabric) FailAdapter(ip transport.IP, mode netsim.FailureMode) error {
	return f.fault(ip, mode.String(), 0)
}

// SetSegmentLoss implements check.Target: a uniform loss rate on every
// adapter now on the segment (negative restores). Partition is loss 1.
func (f *Fabric) SetSegmentLoss(segment string, loss float64) {
	for _, n := range f.spec.Nodes {
		for _, a := range n.Adapters {
			if switchsim.SegmentName(f.VLANOf(a.IP)) != segment {
				continue
			}
			if err := f.fault(a.IP, "", max(loss, 0)); err != nil {
				f.logf("chaos: segment loss on %v: %v", a.IP, err)
			}
		}
	}
}

// fault puts one adapter into a failure mode ("healthy", "fail-stop",
// "fail-recv", "fail-send") with a loss rate each way.
func (f *Fabric) fault(ip transport.IP, mode string, loss float64) error {
	a, ok := f.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	if err := f.sub.fail(f, a, mode, loss, loss); err != nil {
		return err
	}
	f.inject(a.Node,
		fmt.Sprintf("harness: adapter %v -> %s in=%.2f out=%.2f", ip, mode, loss, loss))
	return nil
}

var errSwitchOutage = errors.New("conformance: the farm's one emulated switch carries the harness itself; no switch outages")

// KillSwitch implements check.Target; no suite can play it.
func (f *Fabric) KillSwitch(string) error { return errSwitchOutage }

// RestoreSwitch implements check.Target; no suite can play it.
func (f *Fabric) RestoreSwitch(string) error { return errSwitchOutage }

// MoveNodeToDomain implements check.Target: the active Central moves the
// node over /fabricctl, and this returns once Central has the switch's
// acknowledgement. The fabric re-plugs after that.
func (f *Fabric) MoveNodeToDomain(node, toDomain string, done func(error)) error {
	moves, err := f.spec.Moves(node, toDomain)
	if err != nil {
		return err
	}
	central, doc := f.activeCentral()
	if central == nil {
		return fmt.Errorf("conformance: no active Central for move (last: %+v)", doc)
	}
	var pairs []string
	for _, idx := range ordered.Keys(moves) {
		pairs = append(pairs, fmt.Sprintf("%d:%d", idx, moves[idx]))
	}
	set := strings.Join(pairs, ",")
	f.inject(node, fmt.Sprintf("harness: planned move set=%s via %s", set, central.Node))
	q := url.Values{"node": {node}, "set": {set}}
	err = httpGet(central.DebugURL()+"/fabricctl/move?"+q.Encode(), nil, httpMoveTimeout)
	if done != nil {
		done(err)
	}
	return err
}

// SurpriseMoveNode implements check.Target: the node's adapters are
// re-plugged onto the domain's VLANs behind Central's back.
func (f *Fabric) SurpriseMoveNode(node, toDomain string) error {
	moves, err := f.spec.Moves(node, toDomain)
	if err != nil {
		return err
	}
	n, _ := f.spec.Node(node)
	for _, a := range n.Adapters {
		if vlan, ok := moves[a.Index]; ok {
			if err := f.rescope(a, vlan); err != nil {
				return err
			}
		}
	}
	f.inject(node, "harness: surprise move to "+toDomain)
	return nil
}

// rescope re-plugs an adapter into another VLAN. Planned moves reach it
// through the switch agent's change hook, surprise moves directly. A
// stopped node's adapter takes the new VLAN when it restarts, like
// re-plugging the port of a powered-off machine.
func (f *Fabric) rescope(a configdb.AdapterSpec, vlan int) error {
	if err := f.sub.replug(f, a, vlan); err != nil {
		return err
	}
	f.mu.Lock()
	f.vlan[a.IP] = vlan
	f.mu.Unlock()
	f.sub.wired(f)
	f.logf("fabric: %v re-plugged to %s", a.IP, switchsim.SegmentName(vlan))
	return nil
}

// VLANOf reports the adapter's current segment in fabric reality.
func (f *Fabric) VLANOf(ip transport.IP) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vlan[ip]
}

// ActiveCentralNode implements check.Target: the node hosting the active
// Central ("" if none is reachable).
func (f *Fabric) ActiveCentralNode() string {
	d, _ := f.activeCentral()
	if d == nil {
		return ""
	}
	return d.Node
}

// activeCentral polls every live daemon's /topology for the active
// Central instance.
func (f *Fabric) activeCentral() (*Daemon, *central.Topology) {
	var last *central.Topology
	for _, d := range f.liveDaemons() {
		var doc central.Topology
		if err := httpGet(d.DebugURL()+"/topology", &doc, httpTimeout); err != nil {
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
func (f *Fabric) Topology(verify bool) (*central.Topology, error) {
	d, doc := f.activeCentral()
	switch {
	case d == nil:
		return nil, fmt.Errorf("conformance: no active Central reachable")
	case !verify:
		return doc, nil
	}
	var verified central.Topology
	if err := httpGet(d.DebugURL()+"/topology?verify=1", &verified, httpTimeout); err != nil {
		return nil, err
	}
	return &verified, nil
}

// close stops the held-fault timers, drains every surviving daemon's
// trace, and tears the farm down.
func (f *Fabric) close() (int, []string, error) {
	f.mu.Lock()
	for _, t := range f.timers {
		t.Stop()
	}
	f.mu.Unlock()
	f.poll()
	err := f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sources), f.warnings, err
}

// Close tears the farm down: every daemon stops gracefully, in
// parallel, then the switch agent and the substrate go. It returns the
// first daemon error, and is safe to call twice.
func (f *Fabric) Close() error {
	f.mu.Lock()
	var ds []*Daemon
	for _, d := range f.live { // order-free: the daemons stop in parallel
		ds = append(ds, d)
	}
	f.live = map[string]*Daemon{}
	f.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(ds))
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Stop(10 * time.Second)
		}(i, d)
	}
	wg.Wait()
	if f.stopAgent != nil {
		f.stopAgent()
		f.stopAgent = nil
	}
	f.sub.down(f)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
