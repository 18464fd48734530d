package conformance

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// LoopbackFabric runs the farm as real gsd processes on the host
// loopback interface. Every adapter is a distinct 127.x address; VLAN
// segmentation is emulated by per-adapter multicast scope groups
// (transport.ScopedEndpoint inside each daemon, controlled over
// /fabricctl). Unprivileged — this is the fabric CI runs on every PR.
type LoopbackFabric struct {
	spec *FarmSpec
	bin  string
	art  string
	logf func(string, ...any)

	agent   *switchAgent
	dbPath  string
	onStart func(*Daemon)

	mu   sync.Mutex
	live map[string]*Daemon
	gens map[string]int
	vlan map[transport.IP]int
}

// NewLoopbackFabric builds the fabric. bin is the gsd binary, art the
// artifacts directory (logs, journals, configdb land under it).
func NewLoopbackFabric(spec *FarmSpec, bin, art string, logf func(string, ...any)) *LoopbackFabric {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	lb := &LoopbackFabric{
		spec: spec, bin: bin, art: art, logf: logf,
		live: map[string]*Daemon{}, gens: map[string]int{},
		vlan: map[transport.IP]int{},
	}
	for _, n := range spec.Nodes {
		for _, a := range n.Adapters {
			lb.vlan[a.IP] = a.VLAN
		}
	}
	return lb
}

// Kind implements Fabric.
func (lb *LoopbackFabric) Kind() string { return "loopback" }

// Spec implements Fabric.
func (lb *LoopbackFabric) Spec() *FarmSpec { return lb.spec }

// OnStart implements Fabric.
func (lb *LoopbackFabric) OnStart(fn func(*Daemon)) { lb.onStart = fn }

// Boot implements Fabric: write the (possibly lying) configdb, start
// the switch agent, then every node.
func (lb *LoopbackFabric) Boot() error {
	for _, dir := range []string{"logs", "journal"} {
		if err := os.MkdirAll(filepath.Join(lb.art, dir), 0o755); err != nil {
			return err
		}
	}
	lb.dbPath = filepath.Join(lb.art, "configdb.json")
	if err := lb.spec.WriteConfigDB(lb.dbPath); err != nil {
		return err
	}
	agent, err := startSwitchAgent(lb.spec, lb.applyPortVLAN)
	if err != nil {
		return err
	}
	lb.agent = agent
	for _, n := range lb.spec.Nodes {
		if err := lb.startNode(n.Name); err != nil {
			lb.Close()
			return err
		}
	}
	return nil
}

// startNode launches a fresh incarnation of the node with its adapters
// scoped to their current segments.
func (lb *LoopbackFabric) startNode(name string) error {
	node, ok := lb.spec.Node(name)
	if !ok {
		return fmt.Errorf("conformance: unknown node %q", name)
	}
	lb.mu.Lock()
	gen := lb.gens[name] + 1
	lb.gens[name] = gen
	adapters := ""
	for i, a := range node.Adapters {
		scope, ok := lb.spec.Scope(lb.vlan[a.IP])
		if !ok {
			lb.mu.Unlock()
			return fmt.Errorf("conformance: no scope group for VLAN %d", lb.vlan[a.IP])
		}
		if i > 0 {
			adapters += ","
		}
		adapters += fmt.Sprintf("%v@%v", a.IP, scope)
	}
	lb.mu.Unlock()

	// Distinct seeds per incarnation keep 2PC round tokens from
	// colliding across a crash-restart in the merged farm trace.
	seed := int64(gen)*1000 + int64(node.Adapters[0].Port)
	argv := []string{
		lb.bin,
		"-node", name,
		"-adapters", adapters,
		"-fast",
		"-seed", strconv.FormatInt(seed, 10),
		"-configdb", lb.dbPath,
		"-community", lb.spec.Community,
		"-switches", fmt.Sprintf("%s=%v:%d", lb.spec.SwitchName, lb.spec.SwitchIP, lb.spec.SwitchPort),
		"-journal-dir", filepath.Join(lb.art, "journal", name),
		"-debug-addr", lb.spec.AdminIP(name).String() + ":0",
		"-fabric-ctl",
		"-trace-cap", "16384",
		"-ready-fd", "3",
	}
	logPath := filepath.Join(lb.art, "logs", fmt.Sprintf("%s-gen%d.log", name, gen))
	d, err := startDaemon(name, gen, argv, logPath)
	if err != nil {
		return err
	}
	lb.mu.Lock()
	lb.live[name] = d
	lb.mu.Unlock()
	lb.logf("fabric: %s ready (pid %d, debug %s)", d.Source(), d.Ready.PID, d.Ready.DebugAddr)
	lb.pushSegments()
	if lb.onStart != nil {
		lb.onStart(d)
	}
	return nil
}

// pushSegments distributes the fabric's current segment table (adapter ->
// scope group) to every live daemon. On a real network a bridge confines
// unicast to its segment; on one loopback interface every 127.x address
// reaches every other, so without this table a moved adapter would keep
// exchanging unicast heartbeats with its old segment forever and the
// protocol would never notice the move.
func (lb *LoopbackFabric) pushSegments() {
	lb.mu.Lock()
	pairs := ""
	stale := false
	for _, ip := range ordered.Keys(lb.vlan) {
		scope, ok := lb.spec.Scope(lb.vlan[ip])
		if !ok {
			stale = true
			continue
		}
		if pairs != "" {
			pairs += ","
		}
		pairs += fmt.Sprintf("%v:%v", ip, scope)
	}
	var targets []*Daemon
	for _, d := range lb.live { // order-free: every daemon gets the same table
		targets = append(targets, d)
	}
	lb.mu.Unlock()
	if stale {
		lb.logf("fabric: segment table has adapters on VLANs with no scope group")
	}
	q := url.Values{"map": {pairs}}
	for _, d := range targets {
		if err := httpCommand(d.DebugURL()+"/fabricctl/segments?"+q.Encode(), httpTimeout); err != nil {
			lb.logf("fabric: segment push to %s failed: %v", d.Source(), err)
		}
	}
}

// Live implements Fabric.
func (lb *LoopbackFabric) Live(node string) (*Daemon, bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	d, ok := lb.live[node]
	return d, ok
}

// LiveDaemons implements Fabric.
func (lb *LoopbackFabric) LiveDaemons() []*Daemon {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	var out []*Daemon
	for _, n := range lb.spec.Nodes {
		if d, ok := lb.live[n.Name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// KillNode implements Fabric.
func (lb *LoopbackFabric) KillNode(node string) error {
	lb.mu.Lock()
	d, ok := lb.live[node]
	delete(lb.live, node)
	lb.mu.Unlock()
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	d.Kill()
	lb.logf("fabric: killed %s", d.Source())
	return nil
}

// RestartNode implements Fabric.
func (lb *LoopbackFabric) RestartNode(node string) error {
	if _, running := lb.Live(node); running {
		return fmt.Errorf("conformance: %s is still running", node)
	}
	return lb.startNode(node)
}

// FailAdapter implements Fabric via the owning daemon's /fabricctl
// socket-level fault filter.
func (lb *LoopbackFabric) FailAdapter(ip transport.IP, mode string, lossIn, lossOut float64) error {
	node, _, ok := lb.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	d, running := lb.Live(node)
	if !running {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	q := url.Values{"adapter": {ip.String()}, "mode": {mode},
		"loss_in":  {strconv.FormatFloat(lossIn, 'f', -1, 64)},
		"loss_out": {strconv.FormatFloat(lossOut, 'f', -1, 64)}}
	return httpCommand(d.DebugURL()+"/fabricctl/fault?"+q.Encode(), httpTimeout)
}

// RescopeAdapter implements Fabric: the emulated switch-port VLAN
// rewrite, performed by re-pointing the adapter's multicast scope.
func (lb *LoopbackFabric) RescopeAdapter(ip transport.IP, vlan int) error {
	node, _, ok := lb.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	scope, ok := lb.spec.Scope(vlan)
	if !ok {
		return fmt.Errorf("conformance: no scope group for VLAN %d", vlan)
	}
	lb.mu.Lock()
	lb.vlan[ip] = vlan
	lb.mu.Unlock()
	d, running := lb.Live(node)
	if !running {
		// The node is down: the new VLAN takes effect when it restarts
		// (startNode reads the live vlan map), like re-plugging the
		// port of a powered-off machine.
		return nil
	}
	q := url.Values{"adapter": {ip.String()}, "group": {scope.String()}}
	if err := httpCommand(d.DebugURL()+"/fabricctl/rescope?"+q.Encode(), httpTimeout); err != nil {
		return err
	}
	lb.pushSegments()
	lb.logf("fabric: %v re-plugged to %s", ip, switchsim.SegmentName(vlan))
	return nil
}

// VLANOf implements Fabric.
func (lb *LoopbackFabric) VLANOf(ip transport.IP) int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.vlan[ip]
}

// applyPortVLAN is the switch agent's write hook: an SNMP SET on a
// port's VLAN object lands here and becomes the adapter re-plug.
func (lb *LoopbackFabric) applyPortVLAN(port, vlan int) {
	ip, ok := lb.spec.AdapterOnPort(port)
	if !ok {
		lb.logf("fabric: SNMP SET on unwired port %d ignored", port)
		return
	}
	if err := lb.RescopeAdapter(ip, vlan); err != nil {
		lb.logf("fabric: SNMP port %d -> vlan %d: %v", port, vlan, err)
	}
}

// Close implements Fabric.
func (lb *LoopbackFabric) Close() error {
	lb.mu.Lock()
	var ds []*Daemon
	for _, d := range lb.live { // order-free: the daemons stop in parallel
		ds = append(ds, d)
	}
	lb.live = map[string]*Daemon{}
	lb.mu.Unlock()

	var firstErr error
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
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if lb.agent != nil {
		lb.agent.close()
		lb.agent = nil
	}
	return firstErr
}
