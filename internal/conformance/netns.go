package conformance

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ordered"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// NetnsFabric runs the farm across Linux network namespaces: one netns
// per node, one bridge per VLAN segment, one veth pair per adapter.
// Broadcast domains are real kernel bridges, so the daemons' multicast
// beaconing, the SNMP plane, and segment isolation are exercised with
// no emulation inside the process at all — a VLAN move is literally
// re-plugging the veth into another bridge, and adapter failure modes
// are link-down and tc-netem loss on the wire. Needs root and
// iproute2; this is the nightly fabric.
type NetnsFabric struct {
	spec *FarmSpec
	bin  string
	art  string
	logf func(string, ...any)

	agent   *switchAgent
	dbPath  string
	onStart func(*Daemon)
	prefix  string // resource-name prefix, pid-derived

	mu   sync.Mutex
	live map[string]*Daemon
	gens map[string]int
	vlan map[transport.IP]int
	up   bool
}

// NewNetnsFabric validates the environment (root, iproute2) and
// returns the fabric.
func NewNetnsFabric(spec *FarmSpec, bin, art string, logf func(string, ...any)) (*NetnsFabric, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if os.Geteuid() != 0 {
		return nil, fmt.Errorf("conformance: the netns fabric needs root")
	}
	if _, err := exec.LookPath("ip"); err != nil {
		return nil, fmt.Errorf("conformance: the netns fabric needs iproute2: %w", err)
	}
	nf := &NetnsFabric{
		spec: spec, bin: bin, art: art, logf: logf,
		prefix: fmt.Sprintf("gs%d", os.Getpid()%1000),
		live:   map[string]*Daemon{}, gens: map[string]int{},
		vlan: map[transport.IP]int{},
	}
	for _, n := range spec.Nodes {
		for _, a := range n.Adapters {
			nf.vlan[a.IP] = a.VLAN
		}
	}
	return nf, nil
}

// Kind implements Fabric.
func (nf *NetnsFabric) Kind() string { return "netns" }

// Spec implements Fabric.
func (nf *NetnsFabric) Spec() *FarmSpec { return nf.spec }

// OnStart implements Fabric.
func (nf *NetnsFabric) OnStart(fn func(*Daemon)) { nf.onStart = fn }

// Resource names. Interface names are capped at 15 chars; the prefix
// is <=6 ("gs999"), node indexes single-digit.
func (nf *NetnsFabric) nsName(node string) string { return nf.prefix + "-" + node }
func (nf *NetnsFabric) brName(vlan int) string    { return fmt.Sprintf("%s-br%d", nf.prefix, vlan) }
func (nf *NetnsFabric) vethRoot(port int) string  { return fmt.Sprintf("%s-p%d", nf.prefix, port) }
func (nf *NetnsFabric) vethInner(idx int) string  { return fmt.Sprintf("eth%d", idx) }
func (nf *NetnsFabric) hostVeth() string          { return nf.prefix + "-host" }
func (nf *NetnsFabric) hostVethPeer() string      { return nf.prefix + "-hostp" }

// sh runs one command, returning combined output in the error.
func (nf *NetnsFabric) sh(name string, args ...string) error {
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("conformance: %s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return nil
}

// inNS runs one command inside a node's namespace.
func (nf *NetnsFabric) inNS(node, name string, args ...string) error {
	full := append([]string{"netns", "exec", nf.nsName(node), name}, args...)
	return nf.sh("ip", full...)
}

func maskFor(ip transport.IP) string {
	// Admin and data planes each sit in one flat subnet so an adapter
	// keeps its address across a VLAN re-plug.
	if byte(ip>>16) == 70 {
		return "24"
	}
	return "16"
}

// Boot implements Fabric.
func (nf *NetnsFabric) Boot() error {
	for _, dir := range []string{"logs", "journal"} {
		if err := os.MkdirAll(filepath.Join(nf.art, dir), 0o755); err != nil {
			return err
		}
	}
	nf.dbPath = filepath.Join(nf.art, "configdb.json")
	if err := nf.spec.WriteConfigDB(nf.dbPath); err != nil {
		return err
	}

	// Bridges: one per VLAN in use. Multicast snooping off, so beacon
	// groups flood the whole segment like a dumb switch.
	vlans := map[int]bool{}
	for _, v := range nf.vlan {
		vlans[v] = true
	}
	for _, v := range ordered.Keys(vlans) {
		br := nf.brName(v)
		if err := nf.sh("ip", "link", "add", br, "type", "bridge", "mcast_snooping", "0"); err != nil {
			return err
		}
		if err := nf.sh("ip", "link", "set", br, "up"); err != nil {
			return err
		}
	}
	nf.up = true

	// The harness's own foothold on the admin segment: a veth into the
	// admin bridge carrying the switch-agent address.
	adminBr := nf.brName(AdminVLAN)
	if err := nf.sh("ip", "link", "add", nf.hostVeth(), "type", "veth", "peer", "name", nf.hostVethPeer()); err != nil {
		return err
	}
	if err := nf.sh("ip", "link", "set", nf.hostVethPeer(), "master", adminBr); err != nil {
		return err
	}
	for _, link := range []string{nf.hostVeth(), nf.hostVethPeer()} {
		if err := nf.sh("ip", "link", "set", link, "up"); err != nil {
			return err
		}
	}
	if err := nf.sh("ip", "addr", "add", nf.spec.SwitchIP.String()+"/24", "dev", nf.hostVeth()); err != nil {
		return err
	}

	// Per-node namespaces and veth wiring.
	for _, n := range nf.spec.Nodes {
		ns := nf.nsName(n.Name)
		if err := nf.sh("ip", "netns", "add", ns); err != nil {
			return err
		}
		if err := nf.inNS(n.Name, "ip", "link", "set", "lo", "up"); err != nil {
			return err
		}
		for _, a := range n.Adapters {
			root, inner := nf.vethRoot(a.Port), nf.vethInner(a.Index)
			if err := nf.sh("ip", "link", "add", root, "type", "veth", "peer", "name", inner, "netns", ns); err != nil {
				return err
			}
			if err := nf.sh("ip", "link", "set", root, "master", nf.brName(nf.vlan[a.IP])); err != nil {
				return err
			}
			if err := nf.sh("ip", "link", "set", root, "up"); err != nil {
				return err
			}
			if err := nf.inNS(n.Name, "ip", "addr", "add", a.IP.String()+"/"+maskFor(a.IP), "dev", inner); err != nil {
				return err
			}
			if err := nf.inNS(n.Name, "ip", "link", "set", inner, "up"); err != nil {
				return err
			}
		}
	}

	agent, err := startSwitchAgent(nf.spec, nf.applyPortVLAN)
	if err != nil {
		return err
	}
	nf.agent = agent

	for _, n := range nf.spec.Nodes {
		if err := nf.startNode(n.Name); err != nil {
			return err
		}
	}
	return nil
}

// startNode launches a fresh incarnation inside the node's namespace.
func (nf *NetnsFabric) startNode(name string) error {
	node, ok := nf.spec.Node(name)
	if !ok {
		return fmt.Errorf("conformance: unknown node %q", name)
	}
	nf.mu.Lock()
	gen := nf.gens[name] + 1
	nf.gens[name] = gen
	nf.mu.Unlock()

	adapters := make([]string, len(node.Adapters))
	for i, a := range node.Adapters {
		adapters[i] = a.IP.String() // real broadcast domains: no scoping
	}
	seed := int64(gen)*1000 + int64(node.Adapters[0].Port)
	argv := []string{
		"ip", "netns", "exec", nf.nsName(name),
		nf.bin,
		"-node", name,
		"-adapters", strings.Join(adapters, ","),
		"-fast",
		"-seed", strconv.FormatInt(seed, 10),
		"-configdb", nf.dbPath,
		"-community", nf.spec.Community,
		"-switches", fmt.Sprintf("%s=%v:%d", nf.spec.SwitchName, nf.spec.SwitchIP, nf.spec.SwitchPort),
		"-journal-dir", filepath.Join(nf.art, "journal", name),
		"-debug-addr", nf.spec.AdminIP(name).String() + ":0",
		"-fabric-ctl", // the /fabricctl/move handler drives planned moves
		"-trace-cap", "16384",
		"-ready-fd", "3",
	}
	logPath := filepath.Join(nf.art, "logs", fmt.Sprintf("%s-gen%d.log", name, gen))
	d, err := startDaemon(name, gen, argv, logPath)
	if err != nil {
		return err
	}
	nf.mu.Lock()
	nf.live[name] = d
	nf.mu.Unlock()
	nf.logf("fabric: %s ready (pid %d, debug %s)", d.Source(), d.Ready.PID, d.Ready.DebugAddr)
	if nf.onStart != nil {
		nf.onStart(d)
	}
	return nil
}

// Live implements Fabric.
func (nf *NetnsFabric) Live(node string) (*Daemon, bool) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	d, ok := nf.live[node]
	return d, ok
}

// LiveDaemons implements Fabric.
func (nf *NetnsFabric) LiveDaemons() []*Daemon {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	var out []*Daemon
	for _, n := range nf.spec.Nodes {
		if d, ok := nf.live[n.Name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// KillNode implements Fabric.
func (nf *NetnsFabric) KillNode(node string) error {
	nf.mu.Lock()
	d, ok := nf.live[node]
	delete(nf.live, node)
	nf.mu.Unlock()
	if !ok {
		return fmt.Errorf("conformance: %s is not running", node)
	}
	d.Kill()
	nf.logf("fabric: killed %s", d.Source())
	return nil
}

// RestartNode implements Fabric.
func (nf *NetnsFabric) RestartNode(node string) error {
	if _, running := nf.Live(node); running {
		return fmt.Errorf("conformance: %s is still running", node)
	}
	return nf.startNode(node)
}

// FailAdapter implements Fabric with link state and tc-netem loss:
// fail-stop downs the link, fail-recv drops everything flowing toward
// the node (root-side veth egress), fail-send drops everything the
// node transmits (namespace-side egress). Partial rates use the same
// qdiscs with the given percentages.
func (nf *NetnsFabric) FailAdapter(ip transport.IP, mode string, lossIn, lossOut float64) error {
	node, a, ok := nf.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	root, inner := nf.vethRoot(a.Port), nf.vethInner(a.Index)

	// Reset everything first; each mode reapplies what it needs.
	_ = nf.sh("tc", "qdisc", "del", "dev", root, "root")
	_ = nf.inNS(node, "tc", "qdisc", "del", "dev", inner, "root")
	if err := nf.inNS(node, "ip", "link", "set", inner, "up"); err != nil {
		return err
	}

	netem := func(dev string, inNode bool, pct float64) error {
		loss := strconv.FormatFloat(pct*100, 'f', 2, 64) + "%"
		if inNode {
			return nf.inNS(node, "tc", "qdisc", "add", "dev", dev, "root", "netem", "loss", loss)
		}
		return nf.sh("tc", "qdisc", "add", "dev", dev, "root", "netem", "loss", loss)
	}
	switch mode {
	case "", "healthy":
		if lossIn > 0 {
			if err := netem(root, false, lossIn); err != nil {
				return err
			}
		}
		if lossOut > 0 {
			if err := netem(inner, true, lossOut); err != nil {
				return err
			}
		}
		return nil
	case "fail-stop":
		return nf.inNS(node, "ip", "link", "set", inner, "down")
	case "fail-recv":
		return netem(root, false, 1)
	case "fail-send":
		return netem(inner, true, 1)
	default:
		return fmt.Errorf("conformance: unknown failure mode %q", mode)
	}
}

// RescopeAdapter implements Fabric: the veth re-plug between bridges.
func (nf *NetnsFabric) RescopeAdapter(ip transport.IP, vlan int) error {
	_, a, ok := nf.spec.Adapter(ip)
	if !ok {
		return fmt.Errorf("conformance: unknown adapter %v", ip)
	}
	br := nf.brName(vlan)
	if err := nf.sh("ip", "link", "set", nf.vethRoot(a.Port), "master", br); err != nil {
		return err
	}
	nf.mu.Lock()
	nf.vlan[ip] = vlan
	nf.mu.Unlock()
	nf.logf("fabric: %v re-plugged to %s", ip, switchsim.SegmentName(vlan))
	return nil
}

// VLANOf implements Fabric.
func (nf *NetnsFabric) VLANOf(ip transport.IP) int {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	return nf.vlan[ip]
}

// applyPortVLAN is the switch agent's write hook.
func (nf *NetnsFabric) applyPortVLAN(port, vlan int) {
	ip, ok := nf.spec.AdapterOnPort(port)
	if !ok {
		nf.logf("fabric: SNMP SET on unwired port %d ignored", port)
		return
	}
	// A re-plug may target a VLAN with no bridge yet (first adapter in
	// a fresh domain).
	nf.mu.Lock()
	needBridge := true
	for _, v := range nf.vlan { // order-free: an existence test
		if v == vlan {
			needBridge = false
			break
		}
	}
	nf.mu.Unlock()
	if needBridge {
		br := nf.brName(vlan)
		_ = nf.sh("ip", "link", "add", br, "type", "bridge", "mcast_snooping", "0")
		_ = nf.sh("ip", "link", "set", br, "up")
	}
	if err := nf.RescopeAdapter(ip, vlan); err != nil {
		nf.logf("fabric: SNMP port %d -> vlan %d: %v", port, vlan, err)
	}
}

// Close implements Fabric: stop daemons, then tear the namespaces,
// veths, and bridges down (veths die with their namespaces).
func (nf *NetnsFabric) Close() error {
	nf.mu.Lock()
	var ds []*Daemon
	for _, d := range nf.live { // order-free: the daemons stop in parallel
		ds = append(ds, d)
	}
	nf.live = map[string]*Daemon{}
	nf.mu.Unlock()

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
	if nf.agent != nil {
		nf.agent.close()
		nf.agent = nil
	}
	if nf.up {
		for _, n := range nf.spec.Nodes {
			_ = nf.sh("ip", "netns", "del", nf.nsName(n.Name))
		}
		_ = nf.sh("ip", "link", "del", nf.hostVeth())
		vlans := map[int]bool{}
		nf.mu.Lock()
		for _, v := range nf.vlan {
			vlans[v] = true
		}
		nf.mu.Unlock()
		for _, v := range ordered.Keys(vlans) {
			_ = nf.sh("ip", "link", "del", nf.brName(v))
		}
		nf.up = false
	}
	return firstErr
}
