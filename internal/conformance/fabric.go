package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/switchsim"
	"repro/internal/transport"
)

// Fabric is a conformance farm's process lifecycle: it writes the
// (possibly lying) configdb, runs the harness-side switch agent, starts,
// kills and restarts real gsd processes, keeps the VLAN every adapter
// is plugged into, and exposes the fault and reconfiguration primitives
// the suites drive. How a VLAN segment is wired between the processes
// is the substrate's business (loopback.go, netns.go); everything else
// lives here once, so every suite runs unchanged on either.
type Fabric struct {
	spec    *FarmSpec
	sub     substrate
	bin     string
	art     string
	logf    func(string, ...any)
	onStart func(*Daemon)

	agent  *switchAgent
	dbPath string

	mu   sync.Mutex
	live map[string]*Daemon
	gens map[string]int
	vlan map[transport.IP]int
}

// substrate is what one fabric does differently from the other: how a
// segment is wired and how an adapter is faulted or re-plugged.
type substrate interface {
	// kind names the fabric ("loopback", "netns").
	kind() string
	// adapterArg is one adapter's entry in gsd's -adapters flag while
	// the adapter sits on vlan.
	adapterArg(f *Fabric, a AdapterSpec, vlan int) (string, error)
	// exec prefixes a node's gsd command line.
	exec(node string) []string
	// up wires the segments before the first daemon starts; down undoes
	// it after the last one stopped.
	up(f *Fabric) error
	down(f *Fabric)
	// wired runs after a daemon started and after an adapter moved.
	wired(f *Fabric)
	// fail puts one adapter into a netsim-style failure mode.
	fail(f *Fabric, node string, a AdapterSpec, mode string, lossIn, lossOut float64) error
	// replug moves one adapter onto vlan; the fabric records the move
	// once this succeeds.
	replug(f *Fabric, node string, a AdapterSpec, vlan int) error
}

// newFabric builds the farm's lifecycle over a substrate. bin is the gsd
// binary, art the artifacts directory (logs, journals and configdb land
// under it); onStart sees every daemon incarnation the fabric launches.
func newFabric(spec *FarmSpec, sub substrate, bin, art string, logf func(string, ...any), onStart func(*Daemon)) *Fabric {
	f := &Fabric{
		spec: spec, sub: sub, bin: bin, art: art, logf: logf, onStart: onStart,
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

// Boot writes the configdb, wires the segments, starts the switch agent,
// then every node. On error the caller still owes a Close.
func (f *Fabric) Boot() error {
	for _, dir := range []string{"logs", "journal"} {
		if err := os.MkdirAll(filepath.Join(f.art, dir), 0o755); err != nil {
			return err
		}
	}
	f.dbPath = filepath.Join(f.art, "configdb.json")
	if err := f.spec.WriteConfigDB(f.dbPath); err != nil {
		return err
	}
	if err := f.sub.up(f); err != nil {
		return err
	}
	agent, err := startSwitchAgent(f.spec, f.applyPortVLAN)
	if err != nil {
		return err
	}
	f.agent = agent
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
	seed := int64(gen)*1000 + int64(node.Adapters[0].Port)
	return append(f.sub.exec(name),
		f.bin,
		"-node", name,
		"-adapters", strings.Join(adapters, ","),
		"-fast",
		"-seed", strconv.FormatInt(seed, 10),
		"-configdb", f.dbPath,
		"-community", f.spec.Community,
		"-switches", fmt.Sprintf("%s=%v:%d", f.spec.SwitchName, f.spec.SwitchIP, f.spec.SwitchPort),
		"-journal-dir", filepath.Join(f.art, "journal", name),
		"-debug-addr", f.spec.AdminIP(name).String()+":0",
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
	f.mu.Unlock()
	f.logf("fabric: %s ready (pid %d, debug %s)", d.Source(), d.Ready.PID, d.Ready.DebugAddr)
	f.sub.wired(f)
	if f.onStart != nil {
		f.onStart(d)
	}
	return nil
}

// Live returns the running incarnation of a node.
func (f *Fabric) Live(node string) (*Daemon, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.live[node]
	return d, ok
}

// LiveDaemons lists all running incarnations in spec order.
func (f *Fabric) LiveDaemons() []*Daemon {
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

// KillNode fail-stops a node's process (SIGKILL).
func (f *Fabric) KillNode(node string) error {
	f.mu.Lock()
	d, ok := f.live[node]
	delete(f.live, node)
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	d.Kill()
	f.logf("fabric: killed %s", d.Source())
	return nil
}

// RestartNode boots a fresh incarnation of a previously killed node.
func (f *Fabric) RestartNode(node string) error {
	if _, running := f.Live(node); running {
		return fmt.Errorf("conformance: %s is still running", node)
	}
	return f.startNode(node)
}

// FailAdapter puts one adapter into a netsim-style failure mode
// ("healthy", "fail-stop", "fail-recv", "fail-send"), optionally with
// partial loss rates.
func (f *Fabric) FailAdapter(ip transport.IP, mode string, lossIn, lossOut float64) error {
	node, a, ok := f.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	return f.sub.fail(f, node, a, mode, lossIn, lossOut)
}

// RescopeAdapter re-plugs an adapter into another VLAN behind Central's
// back: the surprise-move primitive. Planned moves go through Central,
// which reaches the same re-plug via the switch agent's write hook. A
// stopped node's adapter takes the new VLAN when it restarts, like
// re-plugging the port of a powered-off machine.
func (f *Fabric) RescopeAdapter(ip transport.IP, vlan int) error {
	node, a, ok := f.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	if err := f.sub.replug(f, node, a, vlan); err != nil {
		return err
	}
	f.mu.Lock()
	f.vlan[ip] = vlan
	f.mu.Unlock()
	f.sub.wired(f)
	f.logf("fabric: %v re-plugged to %s", ip, switchsim.SegmentName(vlan))
	return nil
}

// VLANOf reports the adapter's current segment in fabric reality.
func (f *Fabric) VLANOf(ip transport.IP) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vlan[ip]
}

// applyPortVLAN is the switch agent's write hook: an SNMP SET on a
// port's VLAN object lands here and becomes the adapter re-plug.
func (f *Fabric) applyPortVLAN(port, vlan int) {
	ip, ok := f.spec.AdapterOnPort(port)
	if !ok {
		f.logf("fabric: SNMP SET on unwired port %d ignored", port)
		return
	}
	if err := f.RescopeAdapter(ip, vlan); err != nil {
		f.logf("fabric: SNMP port %d -> vlan %d: %v", port, vlan, err)
	}
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
	if f.agent != nil {
		f.agent.close()
		f.agent = nil
	}
	f.sub.down(f)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
